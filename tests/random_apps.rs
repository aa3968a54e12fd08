//! Property-based end-to-end fuzzing: random multi-kernel applications
//! with randomly-aliased buffers, halo widths, and grid sizes must always
//! produce architecturally-invisible schedules under every mode.

mod common;

use blockmaestro::{check_schedule, run, ExecMode, RunSpec};
use bm_depgraph::HazardMode;
use bm_simt::GpuConfig;
use bm_testkit::{check_cases, prop_ensure};
use bm_trace::NullTracer;
use common::{build_random_app, gen_spec, has_war_hazard, KernelSpec};

#[test]
fn random_apps_stay_architecturally_invisible() {
    check_cases(0xAAA5, 24, |rng| {
        let n_buffers = rng.range_usize(2, 5);
        let n_specs = rng.range_usize(2, 6);
        let window = rng.range_u32(2, 5);
        let hazard = *rng.pick(&[HazardMode::Raw, HazardMode::All]);
        let specs: Vec<KernelSpec> = (0..n_specs)
            .map(|_| {
                let mut s = gen_spec(rng, n_buffers);
                // In-place kernels with shifts are intra-kernel racy
                // (TB A reads what TB B writes within the same launch);
                // keep src != dst so the *program itself* is race-free and
                // only inter-kernel ordering is under test.
                if s.src_buf == s.dst_buf {
                    s.dst_buf = (s.dst_buf + 1) % n_buffers;
                }
                s
            })
            .collect();
        let app = build_random_app(n_buffers, &specs);
        if hazard == HazardMode::Raw && has_war_hazard(&specs) {
            return Ok(());
        }
        let cfg = GpuConfig::small();
        let report = run(
            &cfg,
            &app,
            &mut RunSpec {
                hazard,
                ..RunSpec::new(ExecMode::ConsumerPriority { window })
            },
            &NullTracer,
        )
        .unwrap();
        let eq = check_schedule(&app, &report.schedule).expect("replay");
        prop_ensure!(eq.is_match(), "schedule diverged for specs {specs:?}");
        Ok(())
    });
}
