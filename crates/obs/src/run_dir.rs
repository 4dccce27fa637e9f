//! One run directory: every artifact a run leaves behind, under a
//! fixed file name, in one place.
//!
//! `tracemod fleet|chaos|live-pipeline --out DIR` write their artifacts
//! through [`write()`]; `obs-report`, `alerts` and `diff-runs` read them
//! back through [`read()`]. The [`Artifact`] table is the schema: each
//! artifact's file name, whether its bytes are a pure function of the
//! run's inputs, and its causal position. Faults are injected during
//! the run; the manifests and the telemetry series come out of it;
//! alerts are evaluated over those; the fleet's aggregate report and
//! the profile carry wall-clock sections. A single-client run
//! (`live-pipeline`, or `chaos` under any plan) writes `faults.jsonl`
//! and `manifests.jsonl` only, so two of them always compare.
//! [`diff_dirs`] walks the deterministic artifacts in that order and
//! stops at the first divergence.

use crate::diff::{diff_artifacts, DiffOptions, Divergence};
use std::fs;
use std::io;
use std::path::Path;

/// One artifact of a run directory: a row of the table below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Artifact {
    /// The fixed file name inside a run directory.
    pub file: &'static str,
    /// Are the bytes the same across reruns, worker counts and shard
    /// layouts? Artifacts carrying wall-clock readings are not, and
    /// [`diff_dirs`] skips them.
    pub deterministic: bool,
}

const fn row(file: &'static str, deterministic: bool) -> Artifact {
    Artifact {
        file,
        deterministic,
    }
}

impl Artifact {
    /// Fault-event JSONL, one line per injected fault (may be empty).
    pub const FAULTS: Artifact = row("faults.jsonl", true);
    /// Runner-stripped run manifests, one line per fleet client or
    /// live-pipeline trial.
    pub const MANIFESTS: Artifact = row("manifests.jsonl", true);
    /// The sampled telemetry series as `SamplePoint` JSONL.
    pub const TELEMETRY: Artifact = row("telemetry.jsonl", true);
    /// The same series as Prometheus text exposition.
    pub const TELEMETRY_PROM: Artifact = row("telemetry.prom", true);
    /// The alert report as JSONL.
    pub const ALERTS: Artifact = row("alerts.jsonl", true);
    /// The alert report as a markdown summary.
    pub const ALERTS_MD: Artifact = row("alerts.md", true);
    /// The aggregate fleet report (with its wall-clock runner section).
    pub const REPORT: Artifact = row("report.json", false);
    /// A collapsed-stack wall-clock self-profile.
    pub const PROFILE: Artifact = row("profile.txt", false);

    /// The table, in causal order.
    pub const ALL: [Artifact; 8] = [
        Artifact::FAULTS,
        Artifact::MANIFESTS,
        Artifact::TELEMETRY,
        Artifact::TELEMETRY_PROM,
        Artifact::ALERTS,
        Artifact::ALERTS_MD,
        Artifact::REPORT,
        Artifact::PROFILE,
    ];
}

/// Refuse `dir` if it exists and is not an empty directory, so one
/// directory never mixes two runs. A missing `dir` is fine: [`write()`]
/// creates it.
pub fn ensure_fresh(dir: &Path) -> Result<(), String> {
    match fs::read_dir(dir).map(|mut entries| entries.next().is_none()) {
        Ok(true) => Ok(()),
        Ok(false) => Err(format!(
            "run directory {} is not empty (one directory holds one run)",
            dir.display()
        )),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("run directory {}: {e}", dir.display())),
    }
}

/// Write a run's artifacts into `dir` (created if missing), one file
/// each.
pub fn write(dir: &Path, artifacts: &[(Artifact, String)]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    for (artifact, text) in artifacts {
        fs::write(dir.join(artifact.file), text)?;
    }
    Ok(())
}

/// Read one artifact back from `dir`: `Ok(None)` when the directory
/// does not hold it, an error when `dir` is not a directory.
pub fn read(dir: &Path, artifact: Artifact) -> io::Result<Option<String>> {
    if !dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a run directory", dir.display()),
        ));
    }
    match fs::read_to_string(dir.join(artifact.file)) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// How two run directories compare over their deterministic artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum DirDiff {
    /// Every deterministic artifact either side holds matched:
    /// `(artifacts compared, records in them)`.
    Identical(usize, usize),
    /// The first artifact (in causal order) only one side holds; the
    /// flag is true when that side is A.
    OneSided(Artifact, bool),
    /// The first artifact whose contents differ, and the earliest
    /// differing field inside it.
    Diverged(Artifact, Divergence),
}

/// Run [`diff_artifacts`] over each deterministic artifact of two run
/// directories, in causal order, and report the first divergence. An
/// artifact only one side holds counts as a divergence; a JSON artifact
/// that does not parse is an `InvalidData` error naming its path.
pub fn diff_dirs(a: &Path, b: &Path, opts: &DiffOptions) -> io::Result<DirDiff> {
    let (mut artifacts, mut records) = (0, 0);
    for artifact in Artifact::ALL.into_iter().filter(|a| a.deterministic) {
        match (read(a, artifact)?, read(b, artifact)?) {
            (None, None) => {}
            (Some(ta), Some(tb)) => {
                let (pa, pb) = (a.join(artifact.file), b.join(artifact.file));
                let (n, divergence) = diff_artifacts(
                    (&pa.to_string_lossy(), &ta),
                    (&pb.to_string_lossy(), &tb),
                    opts,
                )
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                if let Some(d) = divergence {
                    return Ok(DirDiff::Diverged(artifact, d));
                }
                artifacts += 1;
                records += n;
            }
            (in_a, _) => return Ok(DirDiff::OneSided(artifact, in_a.is_some())),
        }
    }
    Ok(DirDiff::Identical(artifacts, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("obs-run-dir-{}-{tag}", std::process::id()));
        fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn the_table_lists_every_artifact_once_in_causal_order() {
        let rows: Vec<(&str, bool)> = Artifact::ALL
            .iter()
            .map(|a| (a.file, a.deterministic))
            .collect();
        assert_eq!(
            rows,
            [
                ("faults.jsonl", true),
                ("manifests.jsonl", true),
                ("telemetry.jsonl", true),
                ("telemetry.prom", true),
                ("alerts.jsonl", true),
                ("alerts.md", true),
                ("report.json", false),
                ("profile.txt", false),
            ]
        );
    }

    #[test]
    fn write_then_read_round_trips_and_fresh_refuses_a_used_dir() {
        let dir = temp_dir("rt");
        assert_eq!(ensure_fresh(&dir), Ok(()), "a missing dir is fresh");
        write(
            &dir,
            &[
                (Artifact::REPORT, "{}".into()),
                (Artifact::FAULTS, String::new()),
            ],
        )
        .unwrap();
        assert_eq!(read(&dir, Artifact::REPORT).unwrap().as_deref(), Some("{}"));
        assert_eq!(read(&dir, Artifact::FAULTS).unwrap().as_deref(), Some(""));
        assert_eq!(read(&dir, Artifact::TELEMETRY).unwrap(), None);
        assert!(ensure_fresh(&dir).unwrap_err().contains("not empty"));
        assert!(read(&dir.join("faults.jsonl"), Artifact::FAULTS).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_dirs_names_the_first_divergent_artifact() {
        let (a, b) = (temp_dir("a"), temp_dir("b"));
        let row = |n: u64| format!("{{\"t_ns\":1000000000,\"events\":{n}}}\n");
        let run = |dir: &Path, events: u64, alerts: bool| {
            fs::remove_dir_all(dir).ok();
            let mut arts = vec![
                (Artifact::FAULTS, String::new()),
                (Artifact::TELEMETRY, row(events)),
                // Wall-clock artifacts never count.
                (Artifact::REPORT, format!("{{\"wall\":{events}}}")),
            ];
            if alerts {
                arts.push((Artifact::ALERTS_MD, "# alerts\n".into()));
            }
            write(dir, &arts).unwrap();
        };
        let opts = DiffOptions::default();

        run(&a, 5, true);
        run(&b, 5, true);
        assert_eq!(diff_dirs(&a, &b, &opts).unwrap(), DirDiff::Identical(3, 2));

        run(&b, 5, false);
        assert_eq!(
            diff_dirs(&a, &b, &opts).unwrap(),
            DirDiff::OneSided(Artifact::ALERTS_MD, true)
        );
        assert_eq!(
            diff_dirs(&b, &a, &opts).unwrap(),
            DirDiff::OneSided(Artifact::ALERTS_MD, false)
        );

        // The telemetry mismatch comes before the missing alerts in
        // causal order, so it is the one reported.
        run(&b, 6, false);
        match diff_dirs(&a, &b, &opts).unwrap() {
            DirDiff::Diverged(artifact, divergence) => {
                assert_eq!(artifact, Artifact::TELEMETRY);
                assert_eq!(divergence.path, "events");
            }
            other => panic!("expected a telemetry divergence, got {other:?}"),
        }
        fs::remove_dir_all(&a).ok();
        fs::remove_dir_all(&b).ok();
    }
}
