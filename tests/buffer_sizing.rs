//! Validates the paper's §IV-C hardware-buffer sizing: 896 dependency-list
//! entries (one per concurrently-resident thread block) are sufficient for
//! every benchmark, because entries are only allocated for actively
//! executing TBs and released at completion.

use blockmaestro::hw::BUFFER_ENTRIES;
use blockmaestro::{run, ExecMode, RunSpec};
use bm_simt::GpuConfig;
use bm_trace::NullTracer;
use bm_workloads::{suite, Scale};

#[test]
fn dependency_list_buffer_never_exceeds_paper_sizing() {
    let cfg = GpuConfig::titan_x_pascal();
    for bench in suite() {
        let app = (bench.build)(Scale::Small);
        for mode in [
            ExecMode::ProducerPriority { window: 2 },
            ExecMode::ConsumerPriority { window: 4 },
        ] {
            let r = run(&cfg, &app, &mut RunSpec::new(mode), &NullTracer).unwrap();
            assert!(
                r.dlb_high_water <= BUFFER_ENTRIES,
                "{} under {mode}: {} dependency-list entries > {BUFFER_ENTRIES}",
                bench.name,
                r.dlb_high_water
            );
        }
    }
}

#[test]
fn dlb_occupancy_tracks_resident_tbs() {
    // On the small 16-slot GPU, peak dependency-list occupancy equals the
    // number of resident TBs, never the full grid.
    let cfg = GpuConfig::small();
    let app = bm_workloads::hotspot::build(Scale::Small);
    let r = run(
        &cfg,
        &app,
        &mut RunSpec::new(ExecMode::ProducerPriority { window: 2 }),
        &NullTracer,
    )
    .unwrap();
    let slots = (cfg.num_sms * cfg.occupancy(64, 0).min(cfg.max_tbs_per_sm)) as usize;
    assert!(
        r.dlb_high_water <= slots,
        "dlb peak {} exceeds the {} resident-TB slots",
        r.dlb_high_water,
        slots
    );
    assert!(r.dlb_high_water > 0);
}

#[test]
fn full_scale_gaussian_respects_buffer_limits() {
    // The stress case: 510 kernels with up to 255 TBs each.
    let cfg = GpuConfig::titan_x_pascal();
    let app = bm_workloads::gaussian::build(Scale::Full);
    let r = run(
        &cfg,
        &app,
        &mut RunSpec::new(ExecMode::ConsumerPriority { window: 4 }),
        &NullTracer,
    )
    .unwrap();
    assert!(r.dlb_high_water <= BUFFER_ENTRIES);
}
