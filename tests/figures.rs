//! Stdout pins for `tracemod figure`, one test per figure.
//!
//! Each figure runs trimmed (`--trials 1 --duration-secs 30`) at one
//! and at two workers, and its stdout is reduced to an FNV-1a digest.
//! The digests were taken from the standalone figure binaries these
//! figures replaced, so a changed digest means a changed table, and
//! the two worker counts must agree byte for byte.

use std::process::Command;

/// FNV-1a over stdout: the pins compare digests rather than pages of
/// golden text.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn assert_pinned(name: &str, want: u64) {
    for jobs in ["1", "2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tracemod"))
            .args(["figure", name, "--trials", "1", "--duration-secs", "30"])
            .args(["--jobs", jobs])
            .output()
            .expect("tracemod binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name} --jobs {jobs}: {stderr}");
        assert!(stderr.contains("[plan]"), "{name}: plan metrics on stderr");
        let have = fnv(&out.stdout);
        assert_eq!(
            have, want,
            "{name} --jobs {jobs}: stdout digest {have:#018x}"
        );
    }
}

#[test]
fn fig1_is_pinned() {
    assert_pinned("fig1", 0x73ea_2ea4_1c1f_c47c);
}

#[test]
fn fig2to5_is_pinned() {
    assert_pinned("fig2to5", 0x3018_b5db_240e_0cd1);
}

#[test]
fn fig6_is_pinned() {
    assert_pinned("fig6", 0xb6b9_5a9e_9c15_e38d);
}

#[test]
fn fig7_is_pinned() {
    assert_pinned("fig7", 0xa1cd_3346_177a_8337);
}

#[test]
fn fig8_is_pinned() {
    assert_pinned("fig8", 0xe00c_6868_a200_57a7);
}

#[test]
fn ablation_tick_is_pinned() {
    assert_pinned("ablation-tick", 0x82e8_0fd0_5ccb_8c68);
}

#[test]
fn ablation_window_is_pinned() {
    assert_pinned("ablation-window", 0x73d5_c3a7_2b24_c025);
}

#[test]
fn ablation_symmetry_is_pinned() {
    assert_pinned("ablation-symmetry", 0x54c7_1b0a_09db_6bab);
}

/// The scenario figures plot no bandwidth above the radio's nominal
/// 2 Mb/s: a distilled Vb under 4 000 ns/B is capped at that rate.
#[test]
fn fig2to5_bandwidths_stay_under_the_radio_rate() {
    let out = Command::new(env!("CARGO_BIN_EXE_tracemod"))
        .args(["figure", "fig2to5", "--trials", "4"])
        .output()
        .expect("tracemod binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 tables");
    let mut in_bandwidth = false;
    let mut ranges = 0;
    for line in stdout.lines() {
        if !line.starts_with(' ') {
            in_bandwidth = line.starts_with("Bandwidth [kb/s]");
            continue;
        }
        if !in_bandwidth {
            continue;
        }
        // Range rows end in `lo..hi`; histogram rows start with their
        // bucket centre.
        let fields: Vec<&str> = line.split_whitespace().collect();
        let values = match fields.last().and_then(|f| f.split_once("..")) {
            Some((lo, hi)) => {
                ranges += 1;
                vec![lo, hi]
            }
            None => vec![fields[0]],
        };
        for v in values {
            let kbps: f64 = v.parse().expect("numeric bandwidth");
            assert!(kbps <= 2000.0, "{kbps} kb/s is above 2 Mb/s: {line}");
        }
    }
    assert!(ranges > 20, "only {ranges} bandwidth range rows");
}

/// Figure 1 runs `--trials` transfers per size and direction, one plan
/// cell each, and prints their mean.
#[test]
fn fig1_averages_its_trials() {
    let run = |trials: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_tracemod"))
            .args(["figure", "fig1", "--trials", trials])
            .output()
            .expect("tracemod binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            out.stdout,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (one, _) = run("1");
    let (two, stderr) = run("2");
    assert!(stderr.contains("[plan] 20 cells"), "{stderr}");
    assert_ne!(one, two, "a second trial left every mean unchanged");
}
