//! The execution engine: replays a compiled kernel's memory accesses
//! through the cache simulator and charges compute cycles from the port
//! model.

use fgbs_isa::{AccessIndex, Binding, CompiledKernel, Precision, Trip, VOp};

use crate::arch::{Arch, LINE};
use crate::cache::CacheSim;
use crate::counters::HwCounters;
use crate::timing::comp_bounds;

/// The result of running one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Core cycles consumed.
    pub cycles: f64,
    /// Wall-clock seconds (cycles / frequency).
    pub seconds: f64,
    /// Hardware events of this invocation only.
    pub counters: HwCounters,
}

/// A simulated machine: an architecture plus mutable cache state.
///
/// Cache contents persist across [`Machine::run`] calls; use
/// [`Machine::flush_caches`] to model a cold start (e.g. a standalone
/// microbenchmark's first invocation after loading its memory dump).
/// A caller that repeats a sequence of runs walks the first
/// [`Machine::settling_runs`] repetitions and [`Machine::replay`]s the
/// rest.
#[derive(Debug, Clone)]
pub struct Machine {
    arch: Arch,
    cache: CacheSim,
    lifetime: HwCounters,
}

struct ResolvedAccess {
    /// Byte address when all loop indices are zero.
    base: u64,
    /// Byte stride per loop dimension (outermost first).
    dim_strides: Vec<i64>,
    size: u64,
    is_store: bool,
    invariant: bool,
    streaming: bool,
    /// Random span in elements, if data-dependent.
    random: Option<u64>,
    elem_bytes: u64,
}

impl Machine {
    /// A machine with cold caches.
    pub fn new(arch: Arch) -> Machine {
        let cache = CacheSim::new(&arch);
        let levels = cache.levels();
        Machine {
            arch,
            cache,
            lifetime: HwCounters::new(levels),
        }
    }

    /// The architecture descriptor.
    pub fn arch(&self) -> &Arch {
        &self.arch
    }

    /// Events accumulated since construction.
    pub fn lifetime_counters(&self) -> &HwCounters {
        &self.lifetime
    }

    /// Drop all cached lines (models a cold start / intervening work).
    pub fn flush_caches(&mut self) {
        self.cache.flush();
    }

    /// Execute one invocation of `kernel` under `binding`.
    pub fn run(&mut self, kernel: &CompiledKernel, binding: &Binding) -> Measurement {
        self.run_with(kernel, binding, true).0
    }

    /// How many repetitions of a repeated sequence of runs must be
    /// walked before every later one measures what the last walked one
    /// did: the number of cache levels + 1.
    ///
    /// A run's measurement is a pure function of its kernel, its binding
    /// and the cache state, and LRU is idempotent under a repeated
    /// stream: a second pass ends in the state the first left. L1 sees
    /// the same stream every repetition, so it starts the second one
    /// settled; level j sees the misses of the levels above it, so it
    /// starts repetition j + 1 settled (DESIGN.md §2, "Steady-state
    /// replay").
    pub fn settling_runs(&self) -> u64 {
        self.cache.levels() as u64 + 1
    }

    /// Account for a run that measured `meas` without walking it: its
    /// per-level hits and misses go to the cache statistics and its
    /// counters to the lifetime totals, and no line is touched. Exact
    /// only for a run that starts from the state it ends in, such as a
    /// repetition after [`Machine::settling_runs`] walked ones.
    pub fn replay(&mut self, meas: &Measurement) {
        let c = &meas.counters;
        self.cache.credit(&c.cache_hits, &c.cache_misses);
        self.lifetime.add(c);
    }

    /// [`Machine::run`], with the same-line replay on or off (off walks
    /// every iteration: the oracle the replay must match bit for bit).
    /// Also returns how many innermost iterations were replayed.
    fn run_with(
        &mut self,
        kernel: &CompiledKernel,
        binding: &Binding,
        replay: bool,
    ) -> (Measurement, u64) {
        let comp = comp_bounds(kernel, &self.arch).cycles();
        let accesses = self.resolve(kernel, binding);
        let (pen_stream, pen_rand) = self.penalties();

        let stats_before = self.cache.stats();

        let dims = kernel.ndims;
        let trips: Vec<Option<u64>> = kernel
            .dims
            .iter()
            .map(|t| match *t {
                Trip::Fixed(n) => Some(n),
                Trip::Param(p) => Some(binding.params[p]),
                Trip::Triangular => None,
            })
            .collect();

        let mut rng = binding.seed ^ 0x5851_f42d_4c95_7f2d;
        let mut cycles = 0.0f64;
        let mut iterations = 0u64;
        let mut invariant_loads = 0u64;
        let mut invariant_stores = 0u64;

        // Iterative walk over the outer dimensions.
        let mut idx = vec![0u64; dims.saturating_sub(1)];
        let in_order = self.arch.in_order;
        // Invariant accesses, and the hot loop's accesses with their
        // current address and inner stride (addresses are reset at every
        // innermost entry).
        let (invariant, hot): (Vec<&ResolvedAccess>, Vec<&ResolvedAccess>) =
            accesses.iter().partition(|a| a.invariant);
        let mut cur: Vec<(u64, i64)> = hot
            .iter()
            .map(|a| (0, *a.dim_strides.last().unwrap_or(&0)))
            .collect();
        // Same-line replay. After a walked iteration every line it touched
        // is still in L1: no set saw more than `ways - 1` other lines
        // after it. Each set holds that iteration's lines first, most
        // recent first, then the rest. An iteration whose every access
        // lands on the line the same access just touched therefore hits
        // L1 throughout and leaves every set in the same order, so it is
        // counted, not walked. Random accesses land anywhere, and more
        // accesses than ways could evict each other.
        let replay =
            replay && hot.iter().all(|a| a.random.is_none()) && hot.len() <= self.cache.l1_ways();
        // A hot access's penalty when level `lvl` satisfied it, and what an
        // iteration adds to `cycles` for its summed penalties.
        let penalty = |a: &ResolvedAccess, lvl: usize| {
            if a.streaming {
                pen_stream[lvl]
            } else {
                pen_rand[lvl]
            }
        };
        let step = |pen: f64| if in_order { comp + pen } else { comp.max(pen) };
        // What a walked iteration adds when every access hits L1.
        let hit_step = step(hot.iter().fold(0.0, |pen, a| pen + penalty(a, 0)));
        let mut replayed = 0u64;
        loop {
            // Resolve the innermost trip for the current outer indices.
            let inner_trip = match trips[dims - 1] {
                Some(n) => n,
                None => idx[dims - 2] + 1, // triangular
            };

            // Touch invariant accesses once per innermost entry.
            for a in &invariant {
                let addr = addr_at(a, &idx, 0);
                let lvl = self.cache.access(addr, a.size).level;
                cycles += pen_rand[lvl];
                if a.is_store {
                    invariant_stores += 1;
                } else {
                    invariant_loads += 1;
                }
            }

            // Start addresses for the hot loop.
            for ((addr, _), a) in cur.iter_mut().zip(&hot) {
                *addr = addr_at(a, &idx, 0);
            }

            let mut i = 0;
            while i < inner_trip {
                let mut pen = 0.0f64;
                for (j, a) in hot.iter().enumerate() {
                    let addr = if let Some(span) = a.random {
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let off = (rng >> 33) % span.max(1);
                        a.base.wrapping_add(off.wrapping_mul(a.elem_bytes))
                    } else {
                        let (addr, stride) = &mut cur[j];
                        let here = *addr;
                        *addr = addr.wrapping_add(*stride as u64);
                        here
                    };
                    pen += penalty(a, self.cache.access(addr, a.size).level);
                }
                cycles += step(pen);
                i += 1;
                if !replay {
                    continue;
                }
                let run = cur
                    .iter()
                    .zip(&hot)
                    .fold(inner_trip - i, |run, (&(next, stride), a)| {
                        run.min(same_line_run(next, stride, a.size))
                    });
                // One add per iteration: a multiply would round differently.
                for _ in 0..run {
                    cycles += hit_step;
                }
                for (addr, stride) in &mut cur {
                    *addr = addr.wrapping_add((*stride as u64).wrapping_mul(run));
                }
                self.cache.credit_l1_hits(run * hot.len() as u64);
                replayed += run;
                i += run;
            }
            iterations += inner_trip;

            // Advance outer indices (odometer), skipping the innermost dim.
            if dims <= 1 {
                break;
            }
            let mut d = dims - 2;
            loop {
                idx[d] += 1;
                let trip_d = match trips[d] {
                    Some(n) => n,
                    None => {
                        // Triangular outer dim: bounded by its parent.
                        idx[d - 1] + 1
                    }
                };
                if idx[d] < trip_d {
                    break;
                }
                idx[d] = 0;
                if d == 0 {
                    // Finished the outermost dimension.
                    d = usize::MAX;
                    break;
                }
                d -= 1;
            }
            if d == usize::MAX {
                break;
            }
        }

        // Build counters for this invocation.
        let mut c = HwCounters::new(self.cache.levels());
        c.cycles = cycles;
        c.iterations = iterations as f64;
        c.invocations = 1;
        let it = iterations as f64;
        c.instructions = kernel.insts_per_iter() * it;
        for inst in &kernel.insts {
            let elems = inst.weight * inst.lanes as f64 * it;
            match inst.op {
                VOp::FAdd | VOp::FSub | VOp::FMul | VOp::FMax | VOp::FCall | VOp::HReduce => {
                    add_flops(&mut c, inst.prec, inst.lanes, elems)
                }
                VOp::FDiv | VOp::FSqrt => {
                    add_flops(&mut c, inst.prec, inst.lanes, elems);
                    c.fp_div += elems;
                }
                VOp::Load => c.loads += elems,
                VOp::Store => c.stores += elems,
                VOp::Branch => c.branches += inst.weight * it,
                _ => {}
            }
        }
        // Invariant touches are real loads/stores too.
        c.loads += invariant_loads as f64;
        c.stores += invariant_stores as f64;

        let stats_after = self.cache.stats();
        for (lvl, ((h0, m0), (h1, m1))) in
            stats_before.iter().zip(&stats_after).enumerate()
        {
            c.cache_hits[lvl] = h1 - h0;
            c.cache_misses[lvl] = m1 - m0;
        }
        let levels = self.cache.levels();
        c.bytes_from_l2 = c.cache_misses[0] as f64 * LINE as f64;
        if levels >= 2 {
            c.bytes_from_l3 = c.cache_misses[1] as f64 * LINE as f64;
        }
        c.bytes_from_mem = c.cache_misses[levels - 1] as f64 * LINE as f64;

        self.lifetime.add(&c);
        let meas = Measurement {
            cycles,
            seconds: self.arch.seconds(cycles),
            counters: c,
        };
        (meas, replayed)
    }

    /// Resolve the kernel's symbolic accesses against a binding.
    fn resolve(&self, kernel: &CompiledKernel, binding: &Binding) -> Vec<ResolvedAccess> {
        kernel
            .accesses
            .iter()
            .map(|a| {
                let ab = &binding.arrays[a.array.0];
                match &a.index {
                    AccessIndex::Random { span } => ResolvedAccess {
                        base: ab.base,
                        dim_strides: vec![0; kernel.ndims],
                        size: a.elem_bytes,
                        is_store: a.is_store,
                        invariant: false,
                        streaming: false,
                        random: Some((*span).min(ab.len)),
                        elem_bytes: a.elem_bytes,
                    },
                    AccessIndex::Affine { strides, offset } => {
                        let mut dim_strides = vec![0i64; kernel.ndims];
                        for (d, s) in strides.iter().enumerate() {
                            if d < kernel.ndims {
                                dim_strides[d] = s.eval(ab.lda) * a.elem_bytes as i64;
                            }
                        }
                        let inner = *dim_strides.last().unwrap_or(&0);
                        ResolvedAccess {
                            base: ab
                                .base
                                .wrapping_add((offset.eval(ab.lda) * a.elem_bytes as i64) as u64),
                            dim_strides,
                            size: a.elem_bytes,
                            is_store: a.is_store,
                            invariant: a.invariant,
                            // Constant-stride streams are caught by the
                            // hardware prefetcher; zero-stride non-invariant
                            // accesses (can't happen) and random ones are not.
                            streaming: inner != 0,
                            random: None,
                            elem_bytes: a.elem_bytes,
                        }
                    }
                }
            })
            .collect()
    }

    /// Per-hit-level penalties in cycles for streaming (prefetched) and
    /// latency-bound (pointer-chasing / random) accesses. Index = level
    /// that satisfied the access; last index = DRAM.
    fn penalties(&self) -> (Vec<f64>, Vec<f64>) {
        let l1_lat = self.arch.caches[0].latency;
        let n = self.arch.caches.len();
        let mut stream = vec![0.0; n + 1];
        let mut rand = vec![0.0; n + 1];
        for lvl in 1..=n {
            let (lat, bw) = if lvl < n {
                (self.arch.caches[lvl].latency, self.arch.caches[lvl].bandwidth)
            } else {
                (self.arch.memory.latency, self.arch.memory.bandwidth)
            };
            let lat_pen = (lat - l1_lat).max(0.0);
            let bw_cost = LINE as f64 / bw;
            stream[lvl] = bw_cost.max(lat_pen * (1.0 - self.arch.prefetch_eff));
            rand[lvl] = lat_pen / self.arch.mlp.max(1.0);
        }
        (stream, rand)
    }
}

fn addr_at(a: &ResolvedAccess, outer_idx: &[u64], inner: u64) -> u64 {
    let mut addr = a.base;
    let n = a.dim_strides.len();
    for (d, &s) in a.dim_strides.iter().enumerate() {
        let i = if d + 1 == n {
            inner
        } else {
            *outer_idx.get(d).unwrap_or(&0)
        };
        addr = addr.wrapping_add((i as i64 * s) as u64);
    }
    addr
}

/// How many more iterations an access of `size` bytes and inner `stride`,
/// whose next address is `next`, stays wholly on the line its previous
/// touch (one stride back) lay on: 0 if that touch straddled two lines.
/// A size of 0 counts as 1 byte, as in [`CacheSim::access`].
fn same_line_run(next: u64, stride: i64, size: u64) -> u64 {
    let off = next.wrapping_sub(stride as u64) % LINE;
    let size = size.max(1);
    if size > LINE - off {
        return 0;
    }
    match stride {
        0 => u64::MAX,
        s if s > 0 => (LINE - size - off) / s as u64,
        s => off / s.unsigned_abs(),
    }
}

fn add_flops(c: &mut HwCounters, prec: Precision, lanes: u8, elems: f64) {
    match (prec, lanes > 1) {
        (Precision::F32, false) => c.flops_sp_scalar += elems,
        (Precision::F32, true) => c.flops_sp_vector += elems,
        (Precision::F64, false) => c.flops_dp_scalar += elems,
        (Precision::F64, true) => c.flops_dp_vector += elems,
        _ => {} // integer ops are not FLOPs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PARK_SCALE;
    use fgbs_isa::{
        compile, AffineExpr, ArrayBinding, ArrayId, BinOp, BindingBuilder, Codelet, CodeletBuilder,
        CompileMode, CompiledAccess,
    };
    use proptest::prelude::*;

    fn copy_codelet() -> Codelet {
        CodeletBuilder::new("copy", "t")
            .array("src", Precision::F64)
            .array("dst", Precision::F64)
            .param_loop("n")
            .store("dst", &[1], |b| b.load("src", &[1]))
            .build()
    }

    fn run_on(arch: Arch, c: &Codelet, n: u64) -> (Measurement, Machine) {
        let k = compile(c, &arch.target(), CompileMode::InApp);
        let binding = BindingBuilder::new(0)
            .vector(n, 8)
            .vector(n, 8)
            .param(n)
            .build_for(c);
        let mut m = Machine::new(arch);
        let meas = m.run(&k, &binding);
        (meas, m)
    }

    #[test]
    fn runs_and_counts_iterations() {
        let c = copy_codelet();
        let (meas, _) = run_on(Arch::nehalem(), &c, 4096);
        assert_eq!(meas.counters.iterations, 4096.0);
        assert_eq!(meas.counters.invocations, 1);
        assert!(meas.cycles > 0.0);
        assert!(meas.seconds > 0.0);
        // 4096 loads + 4096 stores at element granularity.
        assert_eq!(meas.counters.loads, 4096.0);
        assert_eq!(meas.counters.stores, 4096.0);
    }

    #[test]
    fn second_invocation_is_warm_and_faster() {
        let c = copy_codelet();
        let arch = Arch::nehalem();
        let k = compile(&c, &arch.target(), CompileMode::InApp);
        let n = 2048u64; // 16 KB per array: fits L1+L2 easily
        let binding = BindingBuilder::new(0)
            .vector(n, 8)
            .vector(n, 8)
            .param(n)
            .build_for(&c);
        let mut m = Machine::new(arch);
        let cold = m.run(&k, &binding);
        let warm = m.run(&k, &binding);
        assert!(
            warm.cycles < cold.cycles,
            "warm {} should beat cold {}",
            warm.cycles,
            cold.cycles
        );
        // And flushing restores cold behaviour.
        m.flush_caches();
        let recold = m.run(&k, &binding);
        assert!(recold.cycles > warm.cycles);
    }

    #[test]
    fn dataset_larger_than_cache_is_slower_per_element() {
        let c = copy_codelet();
        let arch = Arch::atom(); // 512 KB L2
        let k = compile(&c, &arch.target(), CompileMode::InApp);
        let small = 4096u64; // 64 KB total: fits L2
        let big = 1 << 20; // 16 MB total: DRAM-bound
        let mut m1 = Machine::new(arch.clone());
        let b1 = BindingBuilder::new(0)
            .vector(small, 8)
            .vector(small, 8)
            .param(small)
            .build_for(&c);
        m1.run(&k, &b1); // warm
        let warm_small = m1.run(&k, &b1).cycles / small as f64;
        let mut m2 = Machine::new(arch);
        let b2 = BindingBuilder::new(0)
            .vector(big, 8)
            .vector(big, 8)
            .param(big)
            .build_for(&c);
        m2.run(&k, &b2);
        let warm_big = m2.run(&k, &b2).cycles / big as f64;
        assert!(
            warm_big > 2.0 * warm_small,
            "DRAM-bound copy must be slower per element: {} vs {}",
            warm_big,
            warm_small
        );
    }

    #[test]
    fn memory_bound_codelet_prefers_big_cache() {
        // Working set ~6 MB: fits Nehalem L3 (12M), misses Core 2 L2 (3M).
        let c = copy_codelet();
        let n = 384 * 1024u64; // 2 * 3MB arrays
        let per_cycle = |arch: Arch| {
            let k = compile(&c, &arch.target(), CompileMode::InApp);
            let b = BindingBuilder::new(0)
                .vector(n, 8)
                .vector(n, 8)
                .param(n)
                .build_for(&c);
            let mut m = Machine::new(arch);
            m.run(&k, &b);
            m.run(&k, &b).cycles
        };
        let nhm = per_cycle(Arch::nehalem());
        let c2 = per_cycle(Arch::core2());
        // Per-cycle Nehalem must be clearly better; Core 2's higher clock
        // (2.93 vs 1.86) must NOT be enough to win on wall-clock.
        let nhm_s = Arch::nehalem().seconds(nhm);
        let c2_s = Arch::core2().seconds(c2);
        assert!(
            c2_s > nhm_s,
            "memory-bound kernel should be slower on Core 2: {} vs {}",
            c2_s,
            nhm_s
        );
    }

    #[test]
    fn compute_bound_codelet_prefers_high_frequency() {
        // Division-heavy kernel on a tiny dataset: Core 2 wins on clock.
        let c = CodeletBuilder::new("vdiv", "t")
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .param_loop("n")
            .store("y", &[1], |b| b.load("y", &[1]) / b.load("x", &[1]))
            .build();
        let n = 1024u64;
        let secs = |arch: Arch| {
            let k = compile(&c, &arch.target(), CompileMode::InApp);
            let b = BindingBuilder::new(0)
                .vector(n, 8)
                .vector(n, 8)
                .param(n)
                .build_for(&c);
            let mut m = Machine::new(arch);
            m.run(&k, &b);
            m.run(&k, &b).seconds
        };
        let nhm = secs(Arch::nehalem());
        let c2 = secs(Arch::core2());
        let atom = secs(Arch::atom());
        assert!(c2 < nhm, "compute-bound: Core 2 {} should beat Nehalem {}", c2, nhm);
        assert!(atom > nhm, "Atom must be slowest: {} vs {}", atom, nhm);
    }

    #[test]
    fn counters_track_flops_and_hierarchy() {
        let c = CodeletBuilder::new("tri", "t")
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .param_loop("n")
            .store("y", &[1], |b| b.load("x", &[1]) * 2.0 + b.load("y", &[1]))
            .build();
        let (meas, m) = run_on(Arch::nehalem(), &c, 1 << 14);
        let ctr = &meas.counters;
        // mul + add per element.
        assert!((ctr.flops() - 2.0 * (1 << 14) as f64).abs() < 1.0);
        assert!(ctr.vector_flop_ratio() > 0.99);
        let total: u64 = ctr.cache_hits.iter().sum::<u64>() + ctr.cache_misses[0];
        assert!(total > 0);
        assert_eq!(m.lifetime_counters().invocations, 1);
        assert!(ctr.bytes_from_mem > 0.0);
    }

    #[test]
    fn triangular_nest_executes_right_iteration_count() {
        let c = CodeletBuilder::new("tri2", "t")
            .array("a", Precision::F64)
            .param_loop("n")
            .tri_loop()
            .update_acc("s", BinOp::Add, |b| b.load("a", &[0, 1]))
            .build();
        let arch = Arch::nehalem();
        let k = compile(&c, &arch.target(), CompileMode::InApp);
        let b = BindingBuilder::new(0).vector(128, 8).param(128).build_for(&c);
        let mut m = Machine::new(arch);
        let meas = m.run(&k, &b);
        assert_eq!(meas.counters.iterations, (128.0 * 129.0) / 2.0);
        assert_eq!(meas.counters.iterations, b.iterations(&c) as f64);
    }

    #[test]
    fn random_access_is_slower_than_streaming() {
        let n = 1 << 18; // 2 MB table, exceeds L2 on Nehalem
        let seq = CodeletBuilder::new("seq", "t")
            .array("x", Precision::F64)
            .param_loop("n")
            .update_acc("s", BinOp::Add, |b| b.load("x", &[1]))
            .build();
        let rnd = CodeletBuilder::new("rnd", "t")
            .array("x", Precision::F64)
            .param_loop("n")
            .update_acc("s", BinOp::Add, |b| b.load_random("x", n))
            .build();
        let arch = Arch::nehalem();
        let cyc = |c: &Codelet| {
            let k = compile(c, &arch.target(), CompileMode::InApp);
            let b = BindingBuilder::new(0).vector(n, 8).param(n).build_for(c);
            let mut m = Machine::new(arch.clone());
            m.run(&k, &b).cycles
        };
        let s = cyc(&seq);
        let r = cyc(&rnd);
        assert!(r > 1.5 * s, "random {} vs streaming {}", r, s);
    }

    #[test]
    fn arrays_based_at_the_top_of_the_address_space_wrap() {
        let n = 64u64;
        let c = CodeletBuilder::new("wrap", "t")
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .param_loop("n")
            .update_acc("s", BinOp::Add, |b| b.load("x", &[1]) + b.load_random("y", n))
            .build();
        let arch = Arch::nehalem();
        let k = compile(&c, &arch.target(), CompileMode::InApp);
        let mut b = BindingBuilder::new(0)
            .vector(n, 8)
            .vector(n, 8)
            .param(n)
            .build_for(&c);
        for a in &mut b.arrays {
            a.base = u64::MAX - 3;
        }
        let meas = Machine::new(arch).run(&k, &b);
        assert_eq!(meas.counters.iterations, n as f64);
        assert!(meas.cycles.is_finite() && meas.cycles > 0.0);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let c = copy_codelet();
        let (a, _) = run_on(Arch::sandy_bridge(), &c, 10_000);
        let (b, _) = run_on(Arch::sandy_bridge(), &c, 10_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn unit_stride_copy_replays_seven_of_every_eight_iterations() {
        let c = copy_codelet();
        let arch = Arch::nehalem();
        let k = compile(&c, &arch.target(), CompileMode::InApp);
        let n = 4096u64;
        let b = BindingBuilder::new(0)
            .vector(n, 8)
            .vector(n, 8)
            .param(n)
            .build_for(&c);
        let (meas, replayed) = Machine::new(arch).run_with(&k, &b, true);
        assert_eq!(meas.counters.iterations, n as f64);
        assert_eq!(replayed, n / 8 * 7);
    }

    /// Seeded draws, from the LCG the cache proptest draws its streams
    /// with.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) % n
        }

        fn signed(&mut self, lo: i64, hi: i64) -> i64 {
            lo + self.below((hi - lo + 1) as u64) as i64
        }

        fn elem_bytes(&mut self) -> u64 {
            [1, 2, 4, 8, 16][self.below(5) as usize]
        }

        /// An affine index over `ndims` loops, with its element size.
        fn affine(&mut self, ndims: usize) -> (AccessIndex, u64) {
            let mut strides: Vec<AffineExpr> = (0..ndims)
                .map(|_| AffineExpr::new(self.signed(-2, 2), self.signed(0, 1)))
                .collect();
            strides[ndims - 1] = if self.below(8) == 0 {
                AffineExpr::lda(1)
            } else {
                AffineExpr::lit(self.signed(-9, 9))
            };
            let offset = AffineExpr::new(self.signed(-4, 11), self.signed(0, 1));
            (AccessIndex::Affine { strides, offset }, self.elem_bytes())
        }
    }

    /// A loop nest, access list and binding to run in place of a compiled
    /// copy's.
    struct Variant {
        dims: Vec<Trip>,
        accesses: Vec<CompiledAccess>,
        binding: Binding,
    }

    /// A seeded kernel shape: fixed, param and triangular trips; strides
    /// of -9..=9 elements of 1-16 bytes (sometimes LDA) with offsets; up
    /// to the widest L1's ways + 6 hot accesses, sometimes one random and
    /// a couple invariant; arrays 64 KiB apart, so their first lines share
    /// an L1 set on every machine, sometimes shifted off their line
    /// (straddles) or placed at the top of the address space (wrap).
    fn variant(seed: u64) -> Variant {
        const MAX_L1_WAYS: u64 = 8;
        let mut g = Draw(seed);
        let ndims = 1 + g.below(3) as usize;
        let mut params = Vec::new();
        let mut dims: Vec<Trip> = (0..ndims)
            .map(|d| {
                let inner = d + 1 == ndims;
                match g.below(3) {
                    0 if d > 0 => Trip::Triangular,
                    1 => {
                        params.push(g.below(if inner { 160 } else { 5 }));
                        Trip::Param(params.len() - 1)
                    }
                    _ => Trip::Fixed(1 + g.below(if inner { 100 } else { 5 })),
                }
            })
            .collect();
        // A triangular trip is its parent's index + 1: give it room.
        for d in 1..ndims {
            if dims[d] == Trip::Triangular {
                if let Trip::Fixed(_) = dims[d - 1] {
                    dims[d - 1] = Trip::Fixed(8 + g.below(24));
                }
            }
        }

        // Conflict kernels give every hot access one index recipe over its
        // own array, so up to ways + 6 lines of one L1 set are touched per
        // iteration and all of them could be replayed.
        let conflict = g.below(2) == 0;
        let n_arrays = if conflict { 16 } else { 1 + g.below(16) };
        let region = if g.below(8) == 0 {
            u64::MAX - g.below(1 << 17)
        } else {
            g.below(1 << 30) << 6
        };
        let lda = g.signed(1, 80);
        let arrays = (0..n_arrays)
            .map(|j| {
                let shift = if g.below(3) == 0 { g.below(64) } else { 0 };
                ArrayBinding {
                    base: region.wrapping_add(j << 16).wrapping_add(shift),
                    lda,
                    len: 1 << 12,
                }
            })
            .collect();

        let hot = g.below(MAX_L1_WAYS + 7) as usize;
        let random_at = if g.below(6) == 0 {
            g.below(hot.max(1) as u64) as usize
        } else {
            usize::MAX
        };
        let template = g.affine(ndims);
        let accesses = (0..hot + g.below(3) as usize)
            .map(|j| {
                let (index, elem_bytes) = if j == random_at {
                    let span = 1 + g.below(1 << 12);
                    (AccessIndex::Random { span }, g.elem_bytes())
                } else if conflict && j < hot {
                    template.clone()
                } else {
                    g.affine(ndims)
                };
                let array = if conflict {
                    j as u64
                } else {
                    g.below(n_arrays)
                };
                CompiledAccess {
                    array: ArrayId(array as usize),
                    index,
                    is_store: g.below(2) == 0,
                    elem_bytes,
                    invariant: j >= hot,
                }
            })
            .collect();
        let binding = Binding {
            arrays,
            params,
            seed: g.below(u64::MAX),
        };
        Variant {
            dims,
            accesses,
            binding,
        }
    }

    /// `v`'s loop nest and accesses in place of a copy compiled for `arch`.
    fn kernel(v: &Variant, arch: &Arch) -> CompiledKernel {
        let mut k = compile(&copy_codelet(), &arch.target(), CompileMode::InApp);
        k.ndims = v.dims.len();
        k.dims = v.dims.clone();
        k.accesses = v.accesses.clone();
        k
    }

    proptest! {
        /// Replaying same-line iterations changes no bit: every Table 1
        /// machine, full-size and scaled, runs three invocations with the
        /// replay and three walking every iteration, and must end with the
        /// same cycles, counters, cache statistics and LRU state.
        #[test]
        fn replay_matches_the_full_walk(seed in any::<u64>()) {
            let v = variant(seed);
            for full in Arch::table1() {
                for arch in [full.clone().scaled(PARK_SCALE), full] {
                    let name = format!("{} ({} KiB L1)", arch.name, arch.caches[0].size >> 10);
                    let k = kernel(&v, &arch);
                    let mut on = Machine::new(arch.clone());
                    let mut off = Machine::new(arch);
                    for inv in 0..3 {
                        let (a, _) = on.run_with(&k, &v.binding, true);
                        let (b, _) = off.run_with(&k, &v.binding, false);
                        prop_assert_eq!(a.cycles.to_bits(), b.cycles.to_bits(), "{} invocation {}", name, inv);
                        prop_assert_eq!(&a.counters, &b.counters, "{} invocation {}", name, inv);
                        prop_assert_eq!(on.cache.stats(), off.cache.stats(), "{} invocation {}", name, inv);
                    }
                    prop_assert_eq!(on.lifetime_counters(), off.lifetime_counters(), "{}", name);
                    prop_assert!(on.cache == off.cache, "{}: LRU state differs", name);
                }
            }
        }
    }

    /// A capacity divisor past [`PARK_SCALE`] that leaves the sequences
    /// below spilling out of every machine's L2 and L3.
    const SPILL_SCALE: u64 = 256;

    /// A seeded sequence of 1-3 [`variant`] kernels compiled for `arch`.
    fn sequence(seed: u64, arch: &Arch) -> Vec<(CompiledKernel, Binding)> {
        let mut g = Draw(seed);
        (0..1 + g.below(3))
            .map(|_| {
                let v = variant(g.below(u64::MAX));
                (kernel(&v, arch), v.binding)
            })
            .collect()
    }

    /// The lines `cache` holds, in LRU order, without its statistics.
    fn lines(cache: &CacheSim) -> CacheSim {
        let mut c = cache.clone();
        c.reset_stats();
        c
    }

    /// Whether two repetitions of a sequence measured the same bits.
    fn same_bits(a: &[Measurement], b: &[Measurement]) -> bool {
        a.iter()
            .zip(b)
            .all(|(a, b)| a.cycles.to_bits() == b.cycles.to_bits() && a.counters == b.counters)
    }

    /// Walk `seq` `settling_runs() + 3` times on a fresh `arch` machine:
    /// every repetition from `settling_runs()` on must measure the bits
    /// the last walked one did and leave the lines as it found them. A
    /// twin that walks `settling_runs()` repetitions and replays the last
    /// one's measurements for the rest must end with the walker's
    /// statistics, lifetime counters and lines. Returns how many
    /// repetitions had to be walked: one past the last that measured
    /// other bits than the next.
    fn check_settling(seq: &[(CompiledKernel, Binding)], arch: &Arch) -> u64 {
        let name = format!("{} ({} KiB L1)", arch.name, arch.caches[0].size >> 10);
        let mut walker = Machine::new(arch.clone());
        let settle = walker.settling_runs() as usize;
        let mut reps: Vec<Vec<Measurement>> = Vec::new();
        let mut settled = lines(&walker.cache);
        for rep in 0..settle + 3 {
            reps.push(seq.iter().map(|(k, b)| walker.run(k, b)).collect());
            if rep + 1 == settle {
                settled = lines(&walker.cache);
            } else if rep >= settle {
                assert!(
                    same_bits(&reps[rep], &reps[settle - 1]),
                    "{}: repetition {} measured other bits than repetition {}",
                    name,
                    rep,
                    settle - 1
                );
                assert!(
                    lines(&walker.cache) == settled,
                    "{}: repetition {} moved a line",
                    name,
                    rep
                );
            }
        }

        let mut twin = Machine::new(arch.clone());
        for rep in 0..settle + 3 {
            for (i, (k, b)) in seq.iter().enumerate() {
                if rep < settle {
                    twin.run(k, b);
                } else {
                    twin.replay(&reps[settle - 1][i]);
                }
            }
        }
        assert_eq!(twin.cache.stats(), walker.cache.stats(), "{}", name);
        assert_eq!(
            twin.lifetime_counters(),
            walker.lifetime_counters(),
            "{}",
            name
        );
        assert!(twin.cache == walker.cache, "{}: LRU state differs", name);

        let needed = (1..=reps.len())
            .find(|&w| reps[w..].iter().all(|r| same_bits(r, &reps[w - 1])))
            .expect("the last repetition ends the search");
        needed as u64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Repeating a sequence of runs settles within `settling_runs()`
        /// repetitions on every Table 1 machine: full-size, scaled to the
        /// park, and scaled until its L2 and L3 overflow.
        #[test]
        fn settled_repetitions_replay_exactly(seed in any::<u64>()) {
            for full in Arch::table1() {
                for arch in [full.clone().scaled(PARK_SCALE), full.clone().scaled(SPILL_SCALE), full] {
                    let needed = check_settling(&sequence(seed, &arch), &arch);
                    prop_assert!(needed <= Machine::new(arch).settling_runs());
                }
            }
        }
    }

    /// Full-size Atom has two levels, and this sequence of two kernels
    /// needs all three of its walked repetitions: its third measures
    /// other bits than its second, so walking one repetition per level
    /// would replay the wrong one.
    #[test]
    fn a_sequence_can_need_every_settling_run() {
        let atom = Arch::atom();
        let seq = sequence(161, &atom);
        assert_eq!(seq.len(), 2);
        assert_eq!(check_settling(&seq, &atom), atom.caches.len() as u64 + 1);
    }
}

#[cfg(test)]
mod combining_tests {
    use super::*;
    use fgbs_isa::{compile, BindingBuilder, CodeletBuilder, CompileMode, Precision};

    /// A DRAM-bound copy with substantial compute: out-of-order cores
    /// overlap the two (max), in-order cores pay both (sum).
    #[test]
    fn in_order_pays_compute_plus_memory() {
        let c = CodeletBuilder::new("mix", "t")
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .param_loop("n")
            .store("y", &[1], |b| {
                let v = b.load("x", &[1]);
                v.clone() * 1.1 + v * 0.9
            })
            .build();
        let n = 1 << 11; // 2 x 16 KB: fits the scaled Atom L2 once warm
        let run = |arch: Arch| {
            let k = compile(&c, &arch.target(), CompileMode::InApp);
            let b = BindingBuilder::new(0)
                .vector(n, 8)
                .vector(n, 8)
                .param(n)
                .build_for(&c);
            let mut m = Machine::new(arch);
            m.run(&k, &b).cycles / n as f64
        };
        // On the scaled Atom both terms contribute; disabling the memory
        // system's cost (perfectly warm) must save in-order cycles.
        let atom = Arch::atom().scaled(8);
        let cold = run(atom.clone());
        let warm = {
            let k = compile(&c, &atom.target(), CompileMode::InApp);
            let b = BindingBuilder::new(0)
                .vector(n, 8)
                .vector(n, 8)
                .param(n)
                .build_for(&c);
            let mut m = Machine::new(atom);
            m.run(&k, &b);
            m.run(&k, &b).cycles / n as f64
        };
        assert!(cold > warm, "cold {cold} vs warm {warm}");
    }

    #[test]
    fn invariant_access_touched_once_per_inner_entry() {
        // y[i][j] = s[i] * x[j]: s is invariant along j, touched once per
        // row entry — loads counter shows iters + rows, not 2*iters.
        let c = CodeletBuilder::new("outer", "t")
            .array("s", Precision::F64)
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .fixed_loop(16)
            .param_loop("n")
            .store_at(
                "y",
                vec![fgbs_isa::AffineExpr::lda(1), fgbs_isa::AffineExpr::lit(1)],
                fgbs_isa::AffineExpr::zero(),
                |b| b.load("s", &[1, 0]) * b.load("x", &[0, 1]),
            )
            .build();
        let arch = Arch::nehalem();
        let k = compile(&c, &arch.target(), CompileMode::InApp);
        let b = BindingBuilder::new(0)
            .vector(16, 8)
            .vector(64, 8)
            .matrix(16 * 64, 8, 64)
            .param(64)
            .build_for(&c);
        let mut m = Machine::new(arch);
        let meas = m.run(&k, &b);
        let iters = 16.0 * 64.0;
        assert_eq!(meas.counters.iterations, iters);
        // x loaded per iteration, s once per row.
        assert!((meas.counters.loads - (iters + 16.0)).abs() < 1e-9);
    }

    #[test]
    fn streaming_beats_pointer_chasing_at_equal_footprint() {
        let arch = Arch::nehalem().scaled(8);
        let n = 1 << 15; // 256 KB: beyond the scaled L2
        let stream = CodeletBuilder::new("stream", "t")
            .array("x", Precision::F64)
            .param_loop("n")
            .update_acc("s", fgbs_isa::BinOp::Add, |b| b.load("x", &[1]))
            .build();
        let random = CodeletBuilder::new("random", "t")
            .array("x", Precision::F64)
            .param_loop("n")
            .update_acc("s", fgbs_isa::BinOp::Add, |b| b.load_random("x", 1 << 15))
            .build();
        let cyc = |c: &fgbs_isa::Codelet| {
            let k = compile(c, &arch.target(), CompileMode::InApp);
            let b = BindingBuilder::new(0).vector(n, 8).param(n).build_for(c);
            let mut m = Machine::new(arch.clone());
            m.run(&k, &b).cycles
        };
        assert!(cyc(&random) > 1.3 * cyc(&stream));
    }
}
