//! Shared atomic `BENCH_*.json` report writing.
//!
//! Every subcommand that persists a machine-readable report
//! (`BENCH_models.json`, `BENCH_fleet.json`) goes through [`emit`]:
//! pretty JSON to stdout, then [`irgrid::anneal::write_atomic`] to the
//! report path. A crash mid-write therefore never leaves a torn report
//! for CI or downstream tooling to misparse — either the previous report
//! survives or the new one is complete. Neither report holds a timing:
//! each is a function of the code and the flags, so reruns can be
//! compared byte for byte. Speed is measured by the benchmark package.

use std::path::Path;

use irgrid::anneal::write_atomic;
use serde::Serialize;

use crate::common::die;

/// Writes `json` (with a trailing newline) atomically to `path` through
/// [`write_atomic`].
pub fn write_json_atomic(path: &Path, json: &str) -> std::io::Result<()> {
    write_atomic(path, format!("{json}\n").as_bytes()).map_err(|(_, err)| err)
}

/// Serializes `report` to pretty JSON, prints it, and atomically writes
/// it to `out_path`; exits with a usage-style error if the write fails.
pub fn emit<T: Serialize>(out_path: &str, report: &T) {
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    println!("{json}");
    match write_json_atomic(Path::new(out_path), &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(err) => die(&format!("cannot write {out_path}: {err}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    #[test]
    fn atomic_write_roundtrips_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("irgrid_bench_report_test");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_test.json");
        write_json_atomic(&path, "{\n  \"ok\": true\n}").expect("write");
        assert_eq!(
            fs::read_to_string(&path).expect("read"),
            "{\n  \"ok\": true\n}\n"
        );
        assert!(!dir.join("BENCH_test.tmp").exists());
        // Overwrite goes through the same rename and wins completely.
        write_json_atomic(&path, "{}").expect("rewrite");
        assert_eq!(fs::read_to_string(&path).expect("read"), "{}\n");
        fs::remove_dir_all(&dir).ok();
    }
}
