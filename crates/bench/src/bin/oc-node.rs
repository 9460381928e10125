//! `oc-node` — one open-cube protocol node as an operating-system
//! process. Binds its cluster endpoint, serves peer and client
//! connections, and runs until a `Shutdown` frame (or SIGKILL, which is
//! the experiment). All behavior lives in `oc_transport::nodeproc`;
//! this binary only parses the command line.

fn main() {
    let opts = match oc_transport::parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("oc-node: {msg}");
            eprintln!(
                "usage: oc-node --id <i> --n <n> --transport <tcp:host:port|uds:dir> \
                 --log <path> [--delta <ticks>] [--cs <ticks>] [--slack <ticks>] \
                 [--tick-ns <ns>] [--recover]"
            );
            std::process::exit(2);
        }
    };
    if let Err(err) = oc_transport::run(opts) {
        eprintln!("oc-node: fatal: {err}");
        std::process::exit(1);
    }
}
