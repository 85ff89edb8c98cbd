//! Checkpoint artifact I/O for the `repro` driver.
//!
//! The cluster layer owns checkpoint *semantics* (capture, validate,
//! authoritative apply — see `asman_cluster::checkpoint`); this module
//! owns the *files*: `CKPT_<epoch>.json` naming, pretty-printed JSON
//! rendering, and parse-with-context on the way back in. Keeping file
//! I/O here means the cluster crate stays filesystem-free and every
//! artifact the driver writes goes through the same vendored
//! `serde_json` path as the reports and traces.

use asman_cluster::Checkpoint;
use std::path::{Path, PathBuf};

/// Canonical file name of the checkpoint taken at `epoch`:
/// `CKPT_000000500.json`. Zero-padded to nine digits so lexicographic
/// directory order is epoch order for every horizon the driver can run
/// (the old six-digit width broke ordering at epoch 1,000,000 — a
/// horizon the soak target reaches ten times over).
pub fn ckpt_filename(epoch: u64) -> String {
    format!("CKPT_{epoch:09}.json")
}

/// Parse the epoch out of a checkpoint file name. Accepts both the
/// current nine-digit width and the legacy six-digit width (artifacts
/// written by older builds), plus any unpadded overflow the old format
/// produced past 999,999 — discovery is numeric, never lexicographic.
pub fn ckpt_epoch(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("CKPT_")?.strip_suffix(".json")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Find the newest checkpoint in `dir` by *numeric* epoch, across both
/// filename widths. `--resume DIR` uses this so a kill-and-resume
/// workflow never has to name the exact artifact.
pub fn latest_checkpoint(dir: &Path) -> Result<PathBuf, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(epoch) = name.to_str().and_then(ckpt_epoch) else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| epoch > *b) {
            best = Some((epoch, entry.path()));
        }
    }
    best.map(|(_, p)| p)
        .ok_or_else(|| format!("no CKPT_<epoch>.json artifacts in {}", dir.display()))
}

/// Write `ck` into `dir` under its canonical name, creating the
/// directory if needed. Returns the written path.
pub fn write_checkpoint(dir: &Path, ck: &Checkpoint) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(ckpt_filename(ck.state.epoch));
    let json = serde_json::to_vec_pretty(&ck.to_value()).expect("serialize checkpoint");
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Read and decode a checkpoint, with the path and the failing field
/// in every error message (missing file, malformed JSON, wrong kind,
/// unsupported version, schema drift).
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Checkpoint::from_value(&v).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asman_cluster::{CheckpointConfig, Policy};

    fn config() -> CheckpointConfig {
        CheckpointConfig {
            epochs: 6,
            policy: Policy::VcrdAware,
            ..CheckpointConfig::default()
        }
    }

    #[test]
    fn write_then_read_round_trips_bytes_and_state() {
        let mut c = config().build_cluster(1);
        for _ in 0..4 {
            c.run_epoch();
        }
        let ck = Checkpoint::capture(&c, config());
        let dir = std::env::temp_dir().join("asman-ckpt-io-test");
        let path = write_checkpoint(&dir, &ck).expect("write");
        assert!(path.ends_with("CKPT_000000004.json"));
        let back = read_checkpoint(&path).expect("read");
        assert_eq!(back.state, ck.state);
        assert_eq!(back.digest, ck.digest);
        assert!(back.validate(&c).is_empty());
        // A second write produces identical bytes — checkpoints of the
        // same state are reproducible artifacts, diffable with `diff -r`.
        let first = std::fs::read(&path).expect("read bytes");
        write_checkpoint(&dir, &ck).expect("rewrite");
        assert_eq!(first, std::fs::read(&path).expect("reread bytes"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_errors_name_the_path_and_problem() {
        let err = read_checkpoint(Path::new("/nonexistent/CKPT_000001.json")).unwrap_err();
        assert!(err.contains("cannot read"), "got {err}");
        assert!(err.contains("CKPT_000001.json"), "got {err}");
        let dir = std::env::temp_dir().join("asman-ckpt-io-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{not json").unwrap();
        assert!(read_checkpoint(&bad).is_err());
        std::fs::write(&bad, "{\"kind\": \"other\", \"version\": 1}").unwrap();
        let err = read_checkpoint(&bad).unwrap_err();
        assert!(err.contains("not a checkpoint"), "got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The regression the nine-digit width fixes: at the 999,999 →
    /// 1,000,000 boundary the six-digit format's lexicographic order
    /// inverted (`CKPT_1000000.json` < `CKPT_999999.json` as strings),
    /// so any directory-order consumer resumed from the wrong artifact.
    /// Numeric discovery must pick the million-epoch checkpoint in a
    /// directory holding both widths.
    #[test]
    fn filename_ordering_survives_the_million_epoch_boundary() {
        assert_eq!(ckpt_filename(999_999), "CKPT_000999999.json");
        assert_eq!(ckpt_filename(1_000_000), "CKPT_001000000.json");
        assert!(ckpt_filename(999_999) < ckpt_filename(1_000_000));
        // The old width, for contrast: lexicographic order inverts.
        assert!("CKPT_1000000.json" < "CKPT_999999.json");

        assert_eq!(ckpt_epoch("CKPT_000999999.json"), Some(999_999));
        assert_eq!(ckpt_epoch("CKPT_999999.json"), Some(999_999));
        assert_eq!(ckpt_epoch("CKPT_1000000.json"), Some(1_000_000));
        assert_eq!(ckpt_epoch("CKPT_x.json"), None);
        assert_eq!(ckpt_epoch("SOAK_report.json"), None);

        let dir = std::env::temp_dir().join("asman-ckpt-io-boundary");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            "CKPT_999999.json",
            "CKPT_1000000.json",
            "CKPT_000000500.json",
        ] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        std::fs::write(dir.join("SOAK_report.json"), "{}").unwrap();
        let latest = latest_checkpoint(&dir).expect("discover");
        assert!(
            latest.ends_with("CKPT_1000000.json"),
            "numeric discovery must beat lexicographic: got {}",
            latest.display()
        );
        let _ = std::fs::remove_dir_all(&dir);
        let err = latest_checkpoint(&dir).unwrap_err();
        assert!(err.contains("cannot read"), "got {err}");
    }
}
