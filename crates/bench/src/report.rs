//! Shared atomic `BENCH_*.json` report writing.
//!
//! Every subcommand that persists a machine-readable report
//! (`BENCH_models.json`, `BENCH_fleet.json`, `BENCH_serve.json`) goes
//! through [`emit`]: pretty JSON to stdout, then
//! an atomic tmp + fsync + rename to the report path. A crash mid-write therefore
//! never leaves a torn report for CI or downstream tooling to misparse —
//! either the previous report survives or the new one is complete.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use serde::Serialize;

use crate::common::die;

/// Writes `json` (with a trailing newline) atomically to `path`: a
/// sibling `<name>.tmp` file is written and fsynced, then renamed over
/// the destination.
pub fn write_json_atomic(path: &Path, json: &str) -> std::io::Result<()> {
    let mut tmp_name = path
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("report"), ToOwned::to_owned);
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)
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
        assert!(!dir.join("BENCH_test.json.tmp").exists());
        // Overwrite goes through the same rename and wins completely.
        write_json_atomic(&path, "{}").expect("rewrite");
        assert_eq!(fs::read_to_string(&path).expect("read"), "{}\n");
        fs::remove_dir_all(&dir).ok();
    }
}
