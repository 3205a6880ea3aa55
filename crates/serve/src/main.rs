//! `irgrid-serve` — the daemon binary.
//!
//! ```text
//! irgrid-serve --socket /tmp/irgrid.sock --state-dir ./serve-state
//! irgrid-serve --tcp 127.0.0.1:9917
//! irgrid-serve --socket /tmp/irgrid.sock --chaos 42        # fault injection (testing)
//! ```
//!
//! Flags:
//!
//! | flag                    | default              | meaning                             |
//! |-------------------------|----------------------|-------------------------------------|
//! | `--socket PATH`         | `./irgrid-serve.sock`| listen on a Unix socket             |
//! | `--tcp ADDR`            | —                    | listen on TCP instead (`host:port`) |
//! | `--state-dir DIR`       | `./irgrid-serve-state` | session checkpoint directory      |
//! | `--request-timeout-ms N`| `30000`              | per-request deadline; `0` disables  |
//! | `--chaos SEED`          | off                  | seeded fault injection (testing)    |
//! | `--reject-at N`         | `33`                 | refuse (`Backpressure`) at this load|
//! | `--max-clients N`       | `64`                 | concurrent connection cap           |
//!
//! The process exits 0 after a client sends `Shutdown`, and 1 if the
//! chaos kill switch fires (simulated crash — restart to recover).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration; // irgrid-lint: allow(D1): CLI timeout flag, transport-layer wall-clock

use irgrid_serve::{
    serve, Chaos, DegradePolicy, KillSwitch, Limits, ServerOptions, SessionManager, SnapshotStore,
    Transport,
};

fn die(message: &str) -> ExitCode {
    eprintln!("irgrid-serve: {message}");
    eprintln!("usage: irgrid-serve [--socket PATH | --tcp ADDR] [--state-dir DIR]");
    eprintln!("                    [--request-timeout-ms N] [--chaos SEED]");
    eprintln!("                    [--reject-at N] [--max-clients N]");
    ExitCode::from(2)
}

struct Flags {
    socket: PathBuf,
    tcp: Option<String>,
    state_dir: PathBuf,
    request_timeout_ms: u64,
    chaos_seed: Option<u64>,
    policy: DegradePolicy,
    max_clients: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        socket: PathBuf::from("./irgrid-serve.sock"),
        tcp: None,
        state_dir: PathBuf::from("./irgrid-serve-state"),
        request_timeout_ms: 30_000,
        chaos_seed: None,
        policy: DegradePolicy::default(),
        max_clients: Limits::default().max_clients,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            iter.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--socket" => flags.socket = PathBuf::from(value("--socket")?),
            "--tcp" => flags.tcp = Some(value("--tcp")?.clone()),
            "--state-dir" => flags.state_dir = PathBuf::from(value("--state-dir")?),
            "--request-timeout-ms" => {
                flags.request_timeout_ms = value("--request-timeout-ms")?
                    .parse()
                    .map_err(|_| "--request-timeout-ms needs an integer".to_owned())?;
            }
            "--chaos" => {
                let seed = value("--chaos")?
                    .parse()
                    .map_err(|_| "--chaos needs a u64 seed".to_owned())?;
                flags.chaos_seed = Some(seed);
            }
            "--reject-at" => {
                flags.policy.reject_at = value("--reject-at")?
                    .parse()
                    .map_err(|_| "--reject-at needs an integer".to_owned())?;
            }
            "--max-clients" => {
                flags.max_clients = value("--max-clients")?
                    .parse()
                    .map_err(|_| "--max-clients needs an integer".to_owned())?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&args) {
        Ok(flags) => flags,
        Err(message) => return die(&message),
    };

    let chaos = match flags.chaos_seed {
        Some(seed) => {
            eprintln!("irgrid-serve: CHAOS MODE, seed {seed} — injected faults are intentional");
            Chaos::seeded(seed)
        }
        None => Chaos::off(),
    };
    let kill = KillSwitch::new();
    let store = match SnapshotStore::open(&flags.state_dir, chaos, kill.clone()) {
        Ok(store) => store,
        Err(err) => return die(&format!("cannot open state dir: {err}")),
    };

    let limits = Limits {
        max_clients: flags.max_clients,
        ..Limits::default()
    };
    let manager = Arc::new(SessionManager::new(store, limits, flags.policy, 1));
    match manager.resumable() {
        Ok(ids) if !ids.is_empty() => {
            eprintln!(
                "irgrid-serve: {} session checkpoint(s) on disk: {}",
                ids.len(),
                ids.join(", ")
            );
        }
        Ok(_) => {}
        Err(err) => return die(&format!("cannot list state dir: {err}")),
    }

    let transport = match &flags.tcp {
        Some(address) => Transport::Tcp(address.clone()),
        None => Transport::Unix(flags.socket.clone()),
    };
    let options = ServerOptions {
        request_timeout: match flags.request_timeout_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
    };

    let handle = match serve(transport, Arc::clone(&manager), options) {
        Ok(handle) => handle,
        Err(err) => return die(&format!("cannot bind: {err}")),
    };
    match handle.transport() {
        Transport::Unix(path) => eprintln!("irgrid-serve: listening on {}", path.display()),
        Transport::Tcp(address) => eprintln!("irgrid-serve: listening on tcp {address}"),
    }

    handle.join();
    if kill.is_tripped() {
        eprintln!("irgrid-serve: chaos kill switch tripped; restart to recover sessions");
        return ExitCode::from(1);
    }
    eprintln!("irgrid-serve: clean shutdown");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|&arg| arg.to_owned()).collect();
        parse_flags(&args)
    }

    #[test]
    fn reject_at_is_the_only_load_flag() {
        let flags = parse(&["--reject-at", "5"]).expect("parses");
        assert_eq!(flags.policy, DegradePolicy { reject_at: 5 });
        for removed in ["--lz-at", "--fixed-at"] {
            let refused = parse(&[removed, "9"]).err().expect("refused");
            assert_eq!(refused, format!("unknown flag `{removed}`"));
        }
    }
}
