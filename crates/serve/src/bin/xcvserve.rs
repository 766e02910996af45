//! xcvserve — run the verification daemon.
//!
//! ```text
//! xcvserve [--addr HOST:PORT] [--store DIR] [--admit-ms N]
//!          [--max-conns N] [--deadline-ms N] [--idle-ms N]
//!          [--port-file PATH] [--quiet]
//! ```
//!
//! * `--addr` — bind address (default `127.0.0.1:7878`; port `0` picks an
//!   ephemeral port).
//! * `--store DIR` — persist expensive results under `DIR` and warm-load
//!   it at startup (default: in-memory only).
//! * `--admit-ms N` — persistence admission threshold in milliseconds
//!   (default 5): cheaper solves are memoized but not written to disk.
//! * `--max-conns N` — concurrent-connection cap (default 64); past it,
//!   connections are rejected with an explicit `busy` error line.
//! * `--deadline-ms N` — per-request wall deadline (default: none); pairs
//!   not finished in time are cancelled, stream as `skipped: "timeout"`
//!   and are never stored, and the request degrades gracefully instead of
//!   running on.
//! * `--idle-ms N` — socket read timeout (default 30000): a connection
//!   idle or wedged mid-line this long is reaped.
//! * `--port-file PATH` — write the actually-bound address to `PATH`
//!   (atomic), for scripts that launch with port 0.
//! * `--quiet` — suppress the startup line.
//!
//! The daemon runs until a client sends `{"cmd": "shutdown"}` (or the
//! process is signalled). A request's campaign dispatches its cells
//! costliest-first by `pair_cost`, which depends only on the matrix,
//! exactly as the in-process `xcverify` does.

use xcv_serve::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: xcvserve [--addr HOST:PORT] [--store DIR] [--admit-ms N] \
         [--max-conns N] [--deadline-ms N] [--idle-ms N] \
         [--port-file PATH] [--quiet]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let mut port_file: Option<String> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => config.addr = value(),
            "--store" => config.store_dir = Some(value().into()),
            "--admit-ms" => {
                config.admit_ms = value().parse().unwrap_or_else(|_| usage());
            }
            "--max-conns" => {
                config.max_connections = value().parse().unwrap_or_else(|_| usage());
            }
            "--deadline-ms" => {
                config.request_deadline_ms = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--idle-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                config.read_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--port-file" => port_file = Some(value()),
            "--quiet" => quiet = true,
            _ => usage(),
        }
    }
    let mut server = match Server::spawn(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xcvserve: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = port_file {
        if let Err(e) =
            xcv_cert::store::write_atomic(path.as_ref(), &format!("{}\n", server.addr()))
        {
            eprintln!("xcvserve: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    if !quiet {
        eprintln!("xcvserve listening on {}", server.addr());
    }
    server.wait();
}
