//! `pmor serve`: the long-running batched evaluation daemon, plus the
//! two tiny client modes (`--ping`, `--shutdown`) used by scripts and
//! CI to health-check and stop a running instance.
//!
//! The daemon itself lives in `pmor_serve` (protocol, LRU ROM store,
//! connection handling); this module only parses flags, optionally
//! preloads `*.rom` files from a directory, prints a startup banner,
//! and blocks on [`pmor_serve::ServerHandle::join`] until a client
//! sends `Shutdown`.

use std::path::{Path, PathBuf};

use pmor_serve::{Client, ServeAddr, ServeConfig, Server};

use crate::{CliError, Flags};

/// Entry point for the `serve` subcommand.
///
/// Three mutually exclusive modes:
///
/// - `pmor serve --addr <host:port|unix:PATH> [knobs…]` — run the
///   daemon in the foreground until a `Shutdown` request drains it.
/// - `pmor serve --ping ADDR` — connect, round-trip a `Ping`, print
///   the server's limits and resident ROMs, exit 0.
/// - `pmor serve --shutdown ADDR` — ask a running daemon to stop
///   accepting connections, drain in-flight batches, and exit.
pub fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("--ping") => client_mode(&args[1..], "--ping", cmd_ping),
        Some("--shutdown") => client_mode(&args[1..], "--shutdown", cmd_shutdown),
        _ => cmd_daemon(args),
    }
}

/// Shared arg handling for the two one-shot client modes: exactly one
/// positional address after the mode flag.
fn client_mode(
    rest: &[String],
    mode: &str,
    run: fn(&ServeAddr) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let [addr] = rest else {
        return Err(CliError::Usage(format!(
            "serve {mode} takes exactly one address (host:port or unix:PATH)"
        )));
    };
    let addr = ServeAddr::parse(addr).map_err(|e| CliError::Usage(e.to_string()))?;
    run(&addr)
}

fn cmd_ping(addr: &ServeAddr) -> Result<(), CliError> {
    let mut client = Client::connect(addr).map_err(connect_err(addr))?;
    client
        .ping()
        .map_err(|e| CliError::Pmor(format!("ping {addr}: {e}")))?;
    let info = client
        .server_info()
        .map_err(|e| CliError::Pmor(format!("info {addr}: {e}")))?;
    outln!(
        "# pmor serve at {addr}: alive (protocol v{}, max frame {} B, max batch {})",
        info.protocol_version,
        info.max_frame,
        info.max_batch
    );
    if info.roms.is_empty() {
        outln!("# resident ROMs: none");
    } else {
        outln!("# resident ROMs (most recently used first):");
        for stamp in &info.roms {
            outln!(
                "#   {:016x}  {} states ({} full), {} params, {}x{} ports",
                stamp.fingerprint,
                stamp.states,
                stamp.full_dim,
                stamp.num_params,
                stamp.num_outputs,
                stamp.num_inputs
            );
        }
    }
    Ok(())
}

fn cmd_shutdown(addr: &ServeAddr) -> Result<(), CliError> {
    let client = Client::connect(addr).map_err(connect_err(addr))?;
    client
        .shutdown_server()
        .map_err(|e| CliError::Pmor(format!("shutdown {addr}: {e}")))?;
    outln!("# pmor serve at {addr}: shutdown acknowledged");
    Ok(())
}

fn connect_err(addr: &ServeAddr) -> impl Fn(pmor_serve::ServeError) -> CliError + '_ {
    move |e| CliError::Io(format!("connecting to {addr}: {e}"))
}

/// Foreground daemon mode.
fn cmd_daemon(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "addr",
            "roms",
            "lru",
            "max-frame",
            "max-batch",
            "timeout-ms",
            "threads",
        ],
    )?;
    let Some(addr) = flags.get("addr") else {
        return Err(CliError::Usage(
            "serve needs --addr <host:port|unix:PATH> (or --ping/--shutdown ADDR)".into(),
        ));
    };
    let addr = ServeAddr::parse(addr).map_err(|e| CliError::Usage(e.to_string()))?;
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr,
        lru_capacity: flag_or(&flags, "lru", defaults.lru_capacity, |n| *n >= 1)?,
        max_frame: flag_or(&flags, "max-frame", defaults.max_frame, |n| *n >= 64)?,
        max_batch: flag_or(&flags, "max-batch", defaults.max_batch, |n| *n >= 1)?,
        read_timeout_ms: flag_or(&flags, "timeout-ms", defaults.read_timeout_ms, |n| *n >= 50)?,
        threads: flag_or(&flags, "threads", defaults.threads, |_| true)?,
    };
    let handle = Server::start(cfg.clone()).map_err(|e| CliError::Io(e.to_string()))?;
    outln!("# pmor serve listening on {}", handle.addr());
    outln!(
        "#   lru {} | max frame {} B | max batch {} | idle timeout {} ms | threads {}",
        cfg.lru_capacity,
        cfg.max_frame,
        cfg.max_batch,
        cfg.read_timeout_ms,
        if cfg.threads == 0 {
            "auto".to_string()
        } else {
            cfg.threads.to_string()
        }
    );
    if let Some(dir) = flags.get("roms") {
        preload_dir(&handle, Path::new(dir))?;
    }
    outln!(
        "# ready; stop with: pmor serve --shutdown {}",
        handle.addr()
    );
    handle.join().map_err(|e| CliError::Io(e.to_string()))
}

/// Loads every `*.rom` directly under `dir` into the daemon's store so
/// clients can evaluate by fingerprint without uploading first.
fn preload_dir(handle: &pmor_serve::ServerHandle, dir: &Path) -> Result<(), CliError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CliError::Io(format!("reading {}: {e}", dir.display())))?
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.is_file() && p.extension().is_some_and(|x| x == "rom")).then_some(p)
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::Invalid(format!(
            "--roms: no ROM files (*.rom) in {}",
            dir.display()
        )));
    }
    for path in &paths {
        let model = crate::load_rom(path)?;
        let stamp = handle.preload(&model);
        outln!(
            "# preloaded {} -> {:016x} ({} states, {} params)",
            path.display(),
            stamp.fingerprint,
            stamp.states,
            stamp.num_params
        );
    }
    Ok(())
}

/// A numeric flag's value, or `default` when it is absent.
fn flag_or<T: std::str::FromStr>(
    flags: &Flags,
    name: &str,
    default: T,
    ok: fn(&T) -> bool,
) -> Result<T, CliError> {
    Ok(flags.value(name, "value", ok)?.unwrap_or(default))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn usage_errors_are_reported() {
        let missing = cmd_serve(&s(&[])).unwrap_err();
        assert!(matches!(missing, CliError::Usage(m) if m.contains("--addr")));
        let unknown = cmd_serve(&s(&["--addr", "127.0.0.1:0", "--bogus", "1"])).unwrap_err();
        assert!(matches!(unknown, CliError::Usage(m) if m.contains("--bogus")));
        let bad_lru = cmd_serve(&s(&["--addr", "127.0.0.1:0", "--lru", "0"])).unwrap_err();
        assert!(matches!(bad_lru, CliError::Usage(m) if m.contains("--lru")));
        let ping_two = cmd_serve(&s(&["--ping", "a:1", "b:2"])).unwrap_err();
        assert!(matches!(ping_two, CliError::Usage(m) if m.contains("exactly one address")));
    }

    #[test]
    fn ping_against_nothing_is_an_io_error() {
        // Port 1 on loopback is essentially never listening; connect
        // must surface a clean Io error, not hang or panic.
        let err = cmd_serve(&s(&["--ping", "127.0.0.1:1"])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }
}
