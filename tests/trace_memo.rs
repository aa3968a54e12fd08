//! Trace-phase determinism: under `ParallelConfig::serial()` every launch
//! that misses the analysis cache interprets its representative-TB trace,
//! and the per-run timing memo times each distinct (trace, occupancy) pair
//! once, so the run equals `ParallelConfig::reference()` — same
//! `JitKernel` outputs, same cache stats — including kernels whose traces
//! depend on buffer contents.

mod common;

use blockmaestro::{
    jit_analyze_app_par_stats, scratch_memory, AnalysisBudget, AnalysisCache, JitKernel,
    ParallelConfig, TraceMemoStats,
};
use bm_cmdq::{ApiCall, Application};
use bm_depgraph::HazardMode;
use bm_ptx::kernel::{ArgValue, Dim3, Launch};
use bm_ptx::mem::AddressSpace;
use bm_ptx::parser::parse_kernel;
use bm_ptx::trace::{trace_block, TbTrace};
use bm_simt::GpuConfig;
use bm_testkit::{check_cases, prop_ensure, Rng};
use bm_workloads::{suite, Scale};
use common::{build_random_app, KernelSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// Runs `app` under the reference config and the fast-path config,
/// requiring bit-identical `JitKernel` outputs and cache stats, and one
/// interpreted trace per cache miss under the fast path; returns the
/// `serial()` run's trace counters for the caller to assert on.
fn check_configs(
    cfg: &GpuConfig,
    app: &Application,
    label: &str,
) -> Result<TraceMemoStats, String> {
    let budget = AnalysisBudget::default();
    let mut ref_cache = AnalysisCache::for_budget(&budget);
    let (reference, _) = jit_analyze_app_par_stats(
        cfg,
        app,
        HazardMode::Raw,
        &budget,
        &mut ref_cache,
        &ParallelConfig::reference(),
    );
    let mut cache = AnalysisCache::for_budget(&budget);
    let (jit, stats) = jit_analyze_app_par_stats(
        cfg,
        app,
        HazardMode::Raw,
        &budget,
        &mut cache,
        &ParallelConfig::serial(),
    );
    prop_ensure!(
        jit.len() == reference.len(),
        "kernel count diverged ({label})"
    );
    for (got, want) in jit.iter().zip(&reference) {
        prop_ensure!(
            kernel_bits(got) == kernel_bits(want),
            "kernel {} diverged ({label}): got {:?} want {:?}",
            got.seq,
            kernel_bits(got),
            kernel_bits(want)
        );
        prop_ensure!(
            got.access == want.access && got.graph == want.graph,
            "access/graph diverged for kernel {} ({label})",
            got.seq
        );
    }
    prop_ensure!(
        cache.stats() == ref_cache.stats(),
        "cache stats diverged ({label})"
    );
    prop_ensure!(
        stats.traces_interpreted == cache.stats().misses,
        "{} traces interpreted for {} cache misses ({label})",
        stats.traces_interpreted,
        cache.stats().misses
    );
    Ok(stats)
}

/// The scalar fields a synthesized trace could corrupt, in one
/// comparable/printable tuple.
fn kernel_bits(k: &JitKernel) -> (u32, u64, u64, u32, Vec<u32>, String, bool) {
    (
        k.seq,
        k.profile.duration,
        k.profile.txns_per_tb,
        k.profile.n_tbs,
        k.skip_gates.clone(),
        k.degradation.to_string(),
        k.cache_hit,
    )
}

/// Specs sharing one grid and shift over distinct buffer pairs: every
/// launch has a distinct analysis key (different pointers) but the same
/// kernel, grid and scalar arguments.
fn gen_memo_specs(rng: &mut Rng, n_buffers: usize) -> Vec<KernelSpec> {
    let tbs = rng.range_u32(40, 100);
    let shift = rng.range_u32(0, 70);
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..n_buffers {
        for j in 0..n_buffers {
            if i != j {
                pairs.push((i, j));
            }
        }
    }
    let n_specs = rng.range_usize(6, pairs.len().min(10) + 1);
    (0..n_specs)
        .map(|k| {
            let (src_buf, dst_buf) = pairs[k % pairs.len()];
            KernelSpec {
                src_buf,
                dst_buf,
                shift,
                tbs,
            }
        })
        .collect()
}

#[test]
fn same_shape_launches_trace_every_cache_miss() {
    check_cases(0x7E40, 32, |rng| {
        let n_buffers = rng.range_usize(3, 6);
        let specs = gen_memo_specs(rng, n_buffers);
        let app = build_random_app(n_buffers, &specs);
        let cfg = GpuConfig::small();
        let stats = check_configs(&cfg, &app, &format!("specs {specs:?}"))?;
        // Every spec names its own buffer pair, so every launch misses.
        prop_ensure!(
            stats.traces_interpreted == specs.len() as u64,
            "specs {specs:?}: {stats:?}"
        );
        Ok(())
    });
}

/// `OUT[gid & 7] = IN[gid] + 1`: every lane stores to one of 8 shared
/// words, lane 8 wrapping back to offset 0, so every block writes the same
/// 8 words while it reads its own slice. Its analysis under every config
/// must match the reference bit for bit.
fn masked_kernel() -> Arc<bm_ptx::kernel::Kernel> {
    Arc::new(
        parse_kernel(
            r#".entry mask(.param .u64 IN, .param .u64 OUT)
            {
              ld.param.u64 %rd1, [IN];
              ld.param.u64 %rd2, [OUT];
              mov.u32 %r1, %ctaid.x;
              mov.u32 %r2, %ntid.x;
              mov.u32 %r3, %tid.x;
              mad.lo.u32 %r4, %r1, %r2, %r3;
              mul.wide.u32 %rd3, %r4, 4;
              add.u64 %rd4, %rd1, %rd3;
              ld.global.f32 %f1, [%rd4];
              add.f32 %f2, %f1, 0f3F800000;
              and.b32 %r5, %r4, 7;
              mul.wide.u32 %rd5, %r5, 4;
              add.u64 %rd6, %rd2, %rd5;
              st.global.f32 [%rd6], %f2;
              ret;
            }"#,
        )
        .unwrap(),
    )
}

#[test]
fn wrapped_store_addresses_match_the_reference() {
    check_cases(0x7E41, 16, |rng| {
        let tbs = rng.range_u32(8, 40);
        let n_launches = rng.range_usize(4, 8);
        let n = tbs as u64 * 64;
        let mut space = AddressSpace::new();
        let src = space.alloc(4 * n);
        let dsts: Vec<_> = (0..n_launches).map(|_| space.alloc(4 * n)).collect();
        let k = masked_kernel();
        let mut host_data = HashMap::new();
        host_data.insert(src.id, (0..n).map(|i| (i % 31) as f32).collect::<Vec<_>>());
        let mut calls = vec![ApiCall::MemcpyH2D {
            alloc: src.id,
            bytes: 4 * n,
        }];
        for d in &dsts {
            calls.push(ApiCall::KernelLaunch(Launch::new(
                k.clone(),
                Dim3::x(tbs),
                Dim3::x(64),
                vec![ArgValue::Ptr(src.base), ArgValue::Ptr(d.base)],
            )));
        }
        let app = Application {
            name: "masked".into(),
            space,
            calls,
            host_data,
        };
        let cfg = GpuConfig::small();
        check_configs(&cfg, &app, &format!("tbs {tbs} launches {n_launches}"))?;
        Ok(())
    });
}

/// A kernel whose event stream depends on loaded *contents*: a u32 flag
/// at `F[0]` steers an extra load. Launches of one kernel, grid and
/// argument layout pointing `F` at buffers with different contents produce
/// different traces, and every config must stay bit-identical to the
/// reference.
fn flag_kernel() -> Arc<bm_ptx::kernel::Kernel> {
    Arc::new(
        parse_kernel(
            r#".entry flagk(.param .u64 F, .param .u64 OUT)
            {
              ld.param.u64 %rd1, [F];
              ld.param.u64 %rd2, [OUT];
              mov.u32 %r1, %ctaid.x;
              mov.u32 %r2, %ntid.x;
              mov.u32 %r3, %tid.x;
              mad.lo.u32 %r4, %r1, %r2, %r3;
              mul.wide.u32 %rd3, %r4, 4;
              add.u64 %rd4, %rd1, %rd3;
              add.u64 %rd6, %rd2, %rd3;
              ld.global.u32 %r7, [%rd1];
              setp.ge.u32 %p1, %r7, 1;
              @%p1 bra $EXTRA;
              st.global.f32 [%rd6], 0f3F800000;
              ret;
            $EXTRA:
              ld.global.f32 %f1, [%rd4];
              add.f32 %f2, %f1, 0f3F800000;
              st.global.f32 [%rd6], %f2;
              ret;
            }"#,
        )
        .unwrap(),
    )
}

#[test]
fn content_dependent_traces_match_the_reference() {
    let tbs = 8u32;
    let n = tbs as u64 * 64;
    let mut space = AddressSpace::new();
    // `zero` stays all-zeroes (flag off); `ones` is host-initialized with
    // nonzero f32 bit patterns (flag on). Kernels never write either.
    let zero = space.alloc(4 * n);
    let ones = space.alloc(4 * n);
    let outs: Vec<_> = (0..5).map(|_| space.alloc(4 * n)).collect();
    let k = flag_kernel();
    let mut host_data = HashMap::new();
    host_data.insert(ones.id, vec![1.0f32; n as usize]);
    let mut calls = vec![ApiCall::MemcpyH2D {
        alloc: ones.id,
        bytes: 4 * n,
    }];
    // Neighbouring launches disagree: flag off, on, off, on, off.
    let flags = [&zero, &ones, &zero, &ones, &zero];
    for (f, out) in flags.iter().zip(&outs) {
        calls.push(ApiCall::KernelLaunch(Launch::new(
            k.clone(),
            Dim3::x(tbs),
            Dim3::x(64),
            vec![ArgValue::Ptr(f.base), ArgValue::Ptr(out.base)],
        )));
    }
    let app = Application {
        name: "flagged".into(),
        space,
        calls,
        host_data,
    };
    let cfg = GpuConfig::small();
    let stats = check_configs(&cfg, &app, "flag kernel").expect("configs must agree");
    assert_eq!(stats.traces_interpreted, 5, "every launch interprets");

    // The two flag populations really produce different profiles.
    let budget = AnalysisBudget::default();
    let mut cache = AnalysisCache::for_budget(&budget);
    let (jit, _) = jit_analyze_app_par_stats(
        &cfg,
        &app,
        HazardMode::Raw,
        &budget,
        &mut cache,
        &ParallelConfig::serial(),
    );
    assert_ne!(
        jit[0].profile.txns_per_tb, jit[1].profile.txns_per_tb,
        "flag-on launches take the extra-load path"
    );
    assert_eq!(jit[0].profile.txns_per_tb, jit[2].profile.txns_per_tb);
    assert_eq!(jit[1].profile.txns_per_tb, jit[3].profile.txns_per_tb);
}

/// Shifted-map launches whose shifts differ, so every launch has its own
/// analysis key and interprets its trace, while word-aligned shifts
/// (multiples of 32 elements) give identical traces. The SM model must
/// time each distinct (trace, occupancy) pair once, and the run must still
/// equal the reference, which times every launch.
#[test]
fn repeated_traces_are_timed_once_per_distinct_pair() {
    let spec = |k: usize, shift: u32, tbs: u32| KernelSpec {
        src_buf: k % 3,
        dst_buf: (k + 1) % 3,
        shift,
        tbs,
    };
    let plan = [
        (0, 48),
        (32, 48),
        (64, 48),
        (96, 48),
        (5, 48),
        (37, 48),
        (0, 2),
    ];
    let specs: Vec<KernelSpec> = plan
        .iter()
        .enumerate()
        .map(|(k, &(shift, tbs))| spec(k, shift, tbs))
        .collect();
    let app = build_random_app(3, &specs);
    let cfg = GpuConfig::small();

    // The distinct (representative trace, occupancy) pairs, traced directly.
    let mut mem = scratch_memory(&app);
    let mut pairs: Vec<(TbTrace, u32)> = Vec::new();
    for launch in app.launches() {
        let n = launch.num_blocks();
        let trace = trace_block(launch, n / 2, &mut mem).unwrap();
        let occ = cfg
            .occupancy(launch.threads_per_block(), launch.kernel.shared_bytes)
            .clamp(1, n);
        if !pairs.contains(&(trace.clone(), occ)) {
            pairs.push((trace, occ));
        }
    }

    let budget = AnalysisBudget::default();
    let mut ref_cache = AnalysisCache::for_budget(&budget);
    let (reference, _) = jit_analyze_app_par_stats(
        &cfg,
        &app,
        HazardMode::Raw,
        &budget,
        &mut ref_cache,
        &ParallelConfig::reference(),
    );
    let mut cache = AnalysisCache::for_budget(&budget);
    let (jit, stats) = jit_analyze_app_par_stats(
        &cfg,
        &app,
        HazardMode::Raw,
        &budget,
        &mut cache,
        &ParallelConfig::serial(),
    );
    assert_eq!(jit, reference, "every kernel must equal the reference's");
    assert_eq!(cache.stats(), ref_cache.stats());
    assert_eq!(stats.traces_interpreted, plan.len() as u64, "{stats:?}");
    assert!(pairs.len() < plan.len(), "the plan must repeat a trace");
    assert_eq!(stats.traces_timed, pairs.len() as u64, "{stats:?}");
}

/// Every suite app at `scale` under `serial()`: each launch that misses
/// the analysis cache interprets its representative-TB trace, and none is
/// served from another launch's trace.
fn suite_traces_every_cache_miss(cfg: &GpuConfig, scale: Scale) {
    let budget = AnalysisBudget::default();
    for b in suite() {
        let app = (b.build)(scale);
        let mut cache = AnalysisCache::for_budget(&budget);
        let (_, stats) = jit_analyze_app_par_stats(
            cfg,
            &app,
            HazardMode::Raw,
            &budget,
            &mut cache,
            &ParallelConfig::serial(),
        );
        assert_eq!(
            stats.traces_interpreted,
            cache.stats().misses,
            "{} ({scale:?}): {stats:?}",
            b.name
        );
    }
}

#[test]
fn every_small_app_traces_every_cache_miss() {
    suite_traces_every_cache_miss(&GpuConfig::small(), Scale::Small);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "Scale::Full: run with --release")]
fn every_full_app_traces_every_cache_miss() {
    suite_traces_every_cache_miss(&GpuConfig::titan_x_pascal(), Scale::Full);
}
