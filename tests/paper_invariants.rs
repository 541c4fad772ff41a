//! The paper's qualitative claims as executable invariants: who wins, in
//! which direction, on every comparison in Sec. 8 — at test-sized frames.

use imagen::algos::Algorithm;
use imagen::baselines::{generate_darkroom, generate_fixynn, generate_soda};
use imagen::{Design, ImageGeometry, MemBackend, MemorySpec, Session};

fn geom() -> ImageGeometry {
    ImageGeometry {
        width: 40,
        height: 30,
        pixel_bits: 16,
    }
}

fn backend() -> MemBackend {
    MemBackend::Asic {
        block_bits: 2 * 40 * 16,
    }
}

fn ours(alg: Algorithm) -> Design {
    Session::new(&alg.build(), geom())
        .compile(&MemorySpec::new(backend(), 2), None)
        .unwrap()
        .plan
        .design
}

fn ours_lc(alg: Algorithm) -> Design {
    imagen::dse::judicious_lc(&alg.build(), &geom(), backend())
        .unwrap()
        .1
        .plan
        .design
}

#[test]
fn table3_roster() {
    for alg in Algorithm::all() {
        let dag = alg.build();
        assert_eq!(dag.num_stages(), alg.expected_stages(), "{}", alg.name());
        assert_eq!(
            dag.multi_consumer_stages().len(),
            alg.expected_multi_consumer(),
            "{}",
            alg.name()
        );
    }
}

#[test]
fn fixynn_never_beats_ours_on_sram() {
    // Sec. 8.3: "FixyNN always has a higher SRAM requirement than Ours,
    // even on single-consumer algorithms."
    for alg in Algorithm::all() {
        let fx = generate_fixynn(&alg.build(), &geom(), backend()).unwrap();
        assert!(
            fx.design.sram_kb() >= ours(alg).sram_kb(),
            "{}: FixyNN {} vs Ours {}",
            alg.name(),
            fx.design.sram_kb(),
            ours(alg).sram_kb()
        );
    }
}

#[test]
fn darkroom_matches_ours_on_single_consumer_only() {
    // Linearization is free on -s algorithms and costs memory on -m ones.
    for alg in Algorithm::all() {
        let dk = generate_darkroom(&alg.build(), &geom(), backend()).unwrap();
        let us = ours(alg);
        if alg.expected_multi_consumer() == 0 {
            assert_eq!(
                dk.design.sram_kb(),
                us.sram_kb(),
                "{}: Darkroom == Ours on single-consumer",
                alg.name()
            );
        } else {
            assert!(
                dk.design.sram_kb() >= us.sram_kb(),
                "{}: Darkroom {} must be >= Ours {}",
                alg.name(),
                dk.design.sram_kb(),
                us.sram_kb()
            );
        }
    }
}

#[test]
fn soda_sram_beats_ours_but_lc_closes_the_gap() {
    // Sec. 8.3: SODA's DFF heads undercut Ours on SRAM; Ours+LC wins the
    // average back.
    let mut soda_total = 0.0;
    let mut ours_total = 0.0;
    let mut lc_total = 0.0;
    for alg in Algorithm::all() {
        let soda = generate_soda(&alg.build(), &geom(), backend()).unwrap();
        soda_total += soda.design.sram_kb();
        ours_total += ours(alg).sram_kb();
        lc_total += ours_lc(alg).sram_kb();
    }
    assert!(
        ours_total > soda_total,
        "Ours ({ours_total}) uses more SRAM than SODA ({soda_total})"
    );
    assert!(
        lc_total < ours_total,
        "LC ({lc_total}) reduces SRAM vs Ours ({ours_total})"
    );
}

#[test]
fn ours_beats_baselines_on_average_power() {
    // Fig. 8b directions: Ours below FixyNN, Darkroom and SODA on average
    // memory power.
    let (mut fx, mut dk, mut soda, mut us) = (0.0, 0.0, 0.0, 0.0);
    for alg in Algorithm::all() {
        fx += generate_fixynn(&alg.build(), &geom(), backend())
            .unwrap()
            .design
            .memory_power_mw();
        dk += generate_darkroom(&alg.build(), &geom(), backend())
            .unwrap()
            .design
            .memory_power_mw();
        soda += generate_soda(&alg.build(), &geom(), backend())
            .unwrap()
            .design
            .memory_power_mw();
        us += ours(alg).memory_power_mw();
    }
    assert!(us < fx, "Ours {us} vs FixyNN {fx}");
    assert!(us < dk, "Ours {us} vs Darkroom {dk}");
    assert!(us < soda, "Ours {us} vs SODA {soda}");
}

#[test]
fn xcorr_linearization_blowup() {
    // Sec. 8.3: linearizing Xcorr-m replicates an 18-row window, adding a
    // tall relay buffer — the paper's standout saving for Ours.
    let alg = Algorithm::XcorrM;
    let dk = generate_darkroom(&alg.build(), &geom(), backend()).unwrap();
    let us = ours(alg);
    assert!(
        dk.design.sram_kb() >= 1.5 * us.sram_kb(),
        "Darkroom {} should dwarf Ours {} on Xcorr-m",
        dk.design.sram_kb(),
        us.sram_kb()
    );
}

#[test]
fn latency_cost_is_negligible() {
    // Sec. 8.1: Ours adds ~0.01% latency over the ASAP (SODA) schedule.
    for alg in Algorithm::all() {
        let us = Session::new(&alg.build(), geom())
            .compile(&MemorySpec::new(backend(), 2), None)
            .unwrap()
            .plan;
        let soda = generate_soda(&alg.build(), &geom(), backend()).unwrap();
        let g = geom();
        let l_ours = us.schedule.latency(&us.dag, g.width, g.height) as f64;
        let l_soda = soda.schedule.latency(&soda.dag, g.width, g.height) as f64;
        assert!(
            l_ours <= l_soda * 1.25,
            "{}: latency {} vs ASAP {} — more than 25% overhead at toy sizes",
            alg.name(),
            l_ours,
            l_soda
        );
    }
}

#[test]
fn multi_consumer_algorithms_gain_more() {
    // The headline motivation: Ours' advantage over Darkroom is larger on
    // -m algorithms than on -s ones.
    let gain = |alg: Algorithm| {
        let dk = generate_darkroom(&alg.build(), &geom(), backend())
            .unwrap()
            .design
            .sram_kb();
        let us = ours(alg).sram_kb();
        (dk - us) / dk
    };
    let s_avg = (gain(Algorithm::CannyS) + gain(Algorithm::HarrisS)) / 2.0;
    let m_avg = (gain(Algorithm::CannyM)
        + gain(Algorithm::HarrisM)
        + gain(Algorithm::UnsharpM)
        + gain(Algorithm::XcorrM)
        + gain(Algorithm::DenoiseM))
        / 5.0;
    assert!(
        m_avg > s_avg,
        "multi-consumer gain {m_avg} must exceed single-consumer gain {s_avg}"
    );
}

#[test]
fn single_port_memories_still_schedulable() {
    // Sec. 3.2: SODA cannot target single-port memories at all; our
    // framework generates valid single-port designs for every workload.
    for alg in Algorithm::all() {
        let fx = generate_fixynn(&alg.build(), &geom(), backend()).unwrap();
        assert!(fx
            .design
            .buffers
            .iter()
            .flat_map(|b| &b.blocks)
            .all(|b| b.ports == 1));
    }
}
