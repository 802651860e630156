//! Headline ratio calibration against Fig. 13's reported factors.
use vr_dann::baselines::*;
use vr_dann::{TrainTask, VrDann, VrDannConfig};
use vrd_sim::{simulate, ExecMode, ParallelOptions, SimConfig};
use vrd_video::davis::{davis_train_suite, davis_val_suite, SuiteConfig};

#[test]
fn fig13_performance_and_energy_ratios() {
    let cfg = SuiteConfig::default();
    let train = davis_train_suite(&cfg, 4);
    let model = VrDann::train(&train, TrainTask::Segmentation, VrDannConfig::default()).unwrap();
    let sim = SimConfig::default();
    let suite = davis_val_suite(&cfg);
    // Per sequence, VR-DANN-parallel's time and energy ratios against
    // OSVOS, FAVOS, DFF and VR-DANN-serial. The sequences run concurrently;
    // the sums below run in suite order, so every ratio is what a serial
    // walk gives.
    let per_seq = vrd_runtime::parallel_map(&suite, |seq| {
        let encoded = model.encode(seq).unwrap();
        let favos = simulate(&run_favos(seq, &encoded, 1).trace, ExecMode::InOrder, &sim);
        let osvos = simulate(&run_osvos(seq, &encoded, 1).trace, ExecMode::InOrder, &sim);
        let dff = simulate(
            &run_dff(seq, &encoded, DFF_KEY_INTERVAL, 1).trace,
            ExecMode::InOrder,
            &sim,
        );
        let vr = model.run_segmentation(seq, &encoded).unwrap();
        let serial = simulate(&vr.trace, ExecMode::VrDannSerial, &sim);
        let par = simulate(
            &vr.trace,
            ExecMode::VrDannParallel(ParallelOptions::default()),
            &sim,
        );
        [osvos, favos, dff, serial].map(|r| {
            (
                r.total_ns / par.total_ns,
                r.energy.total_mj() / par.energy.total_mj(),
            )
        })
    });
    let (mut po, mut pf, mut pd, mut ps, mut eo, mut ef, mut ed, mut es) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let n = suite.len() as f64;
    for [(o, e_o), (f, e_f), (d, e_d), (s, e_s)] in per_seq {
        po += o;
        pf += f;
        pd += d;
        ps += s;
        eo += e_o;
        ef += e_f;
        ed += e_d;
        es += e_s;
    }
    println!(
        "perf  vs osvos {:.2}x favos {:.2}x dff {:.2}x serial {:.2}x",
        po / n,
        pf / n,
        pd / n,
        ps / n
    );
    println!(
        "energy vs osvos {:.2}x favos {:.2}x dff {:.2}x serial {:.2}x",
        eo / n,
        ef / n,
        ed / n,
        es / n
    );
    // Paper: 5.7x / 2.9x / 2.2x / 1.5x perf; 4.3x / 2.1x / 1.7x / 1.1x energy.
    assert!(
        pf / n > 1.8 && pf / n < 4.0,
        "favos perf ratio {:.2}",
        pf / n
    );
    assert!(
        po / n > 1.5 * pf / n * 0.9,
        "osvos should be ~2x favos ratio"
    );
    assert!(pd / n > 1.2 && pd / n < pf / n, "dff ratio {:.2}", pd / n);
    assert!(ps / n > 1.2 && ps / n < 2.2, "serial ratio {:.2}", ps / n);
    assert!(ef / n > 1.5, "favos energy ratio {:.2}", ef / n);
    assert!(
        ed / n > 1.2 && ed / n < ef / n,
        "dff energy ratio {:.2}",
        ed / n
    );
}
