//! The reproduction table's rules: Table 2's time to balance, the
//! verdicts, and the exit status they give.

use dcws_bench::reproduce::{
    cells, checks, exit_status, time_to_balance, Verdict, Want, ARTIFACTS, SEEDS,
};
use dcws_sim::Sample;

fn samples(cps: &[f64]) -> Vec<Sample> {
    let sample = |(i, &cps): (usize, &f64)| Sample {
        t_ms: 10_000 * (i as u64 + 1),
        cps,
        bps: 0.0,
        drops_per_sec: 0.0,
        redirects_per_sec: 0.0,
        migrations_total: 0,
        per_server_cps: Vec::new(),
    };
    cps.iter().enumerate().map(sample).collect()
}

#[test]
fn an_arm_that_never_reaches_the_base_plateau_reports_the_run_length() {
    // The base plateaus at 1,000 CPS; this arm creeps up to 300 and
    // stays there, so against its own plateau it "balances" at 20 s.
    let slow = samples(&[100.0, 300.0, 300.0, 300.0, 300.0, 300.0]);
    assert_eq!(time_to_balance(&slow, 800.0, 60_000), 60_000);
    // An arm above the base reaches it at its first sample there.
    let fast = samples(&[500.0, 900.0, 2_000.0]);
    assert_eq!(time_to_balance(&fast, 800.0, 30_000), 20_000);
}

#[test]
fn only_an_unexplained_fail_in_full_mode_exits_non_zero() {
    let pass = [Verdict::Pass, Verdict::NoData];
    let gap = [Verdict::Pass, Verdict::KnownGap("12(c)")];
    let fail = [Verdict::Pass, Verdict::KnownGap("12(c)"), Verdict::Fail];
    assert_eq!(exit_status(false, false, &pass), 0);
    assert_eq!(exit_status(false, false, &gap), 0);
    assert_ne!(exit_status(false, false, &fail), 0);
    // Quick mode checks nothing but that every cell ran and wrote.
    assert_eq!(exit_status(true, false, &fail), 0);
    assert_ne!(exit_status(true, true, &pass), 0);
}

#[test]
fn a_check_outside_its_band_fails_unless_it_names_a_gap() {
    let mut c = checks()
        .into_iter()
        .find(|c| c.gap.is_none())
        .expect("a check");
    c.want = Want::Between(1.88, 2.12);
    assert_eq!(c.verdict(Some(2.0)), Verdict::Pass);
    assert_eq!(c.verdict(Some(1.5)), Verdict::Fail);
    assert_eq!(c.verdict(None), Verdict::NoData);
    c.gap = Some("12(a)");
    assert_eq!(c.verdict(Some(1.5)), Verdict::KnownGap("12(a)"));
}

#[test]
fn every_check_reads_cells_of_a_known_artifact_and_keys_are_unique() {
    for quick in [false, true] {
        let cells = cells(quick);
        for (i, c) in cells.iter().enumerate() {
            assert!(ARTIFACTS.iter().any(|(a, _)| *a == c.artifact), "{}", c.key);
            let twin = cells[..i]
                .iter()
                .any(|d| (d.artifact, &d.key) == (c.artifact, &c.key));
            assert!(!twin, "{} {} twice", c.artifact, c.key);
        }
        for check in checks() {
            let artifact = check.name.split(' ').next();
            assert!(
                cells.iter().any(|c| Some(c.artifact) == artifact),
                "{}",
                check.name
            );
        }
    }
    assert_eq!(SEEDS[0], 42);
}
