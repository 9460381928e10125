//! The one report path: every table `oc-bench` prints and every
//! `BENCH_*.json` it writes goes through here.
//!
//! A row is a [`Value::Obj`]. A table is a list of [`Col`]s — header,
//! row key, width, decimals — rendered by [`line`]; an artifact is an
//! [`Artifact`] — the rows inside the one envelope — ended by
//! [`Artifact::finish`], the only code that writes a file. What a table
//! shows is therefore what its artifact holds, by construction.

use crate::json::Value;
use crate::sweep::Timing;

/// One column of a stdout table.
#[derive(Debug, Clone, Copy)]
pub struct Col {
    /// Header text.
    pub head: &'static str,
    /// Key of the row field shown.
    pub key: &'static str,
    /// Column width (right-aligned).
    pub width: usize,
    /// Decimals of a float field.
    pub decimals: usize,
}

/// Shorthand constructor for the column lists.
#[must_use]
pub const fn col(head: &'static str, key: &'static str, width: usize, decimals: usize) -> Col {
    Col { head, key, width, decimals }
}

/// One table line: `cell` of each column, right-aligned to its width.
fn aligned(cols: &[Col], cell: impl Fn(&Col) -> String) -> String {
    cols.iter().map(|c| format!("{:>w$}", cell(c), w = c.width)).collect::<Vec<_>>().join(" ")
}

/// The table's header line.
#[must_use]
pub fn header(cols: &[Col]) -> String {
    aligned(cols, |c| c.head.to_string())
}

/// One row as a table line: integers as they are, floats at the column's
/// decimals, booleans as `yes` / `NO`, an absent field as `-`.
#[must_use]
pub fn line(cols: &[Col], row: &Value) -> String {
    aligned(cols, |c| match row.get(c.key) {
        Value::UInt(u) => u.to_string(),
        Value::Num(x) => format!("{x:.d$}", d = c.decimals),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => (if *b { "yes" } else { "NO" }).to_string(),
        _ => "-".to_string(),
    })
}

/// Prints the header and every row.
pub fn print_table(cols: &[Col], rows: &[Value]) {
    println!("{}", header(cols));
    for row in rows {
        println!("{}", line(cols, row));
    }
}

/// Where an artifact's wall-clock columns were measured: core count,
/// architecture, compiler and commit (`+dirty` when tracked files differ
/// from it — artifacts are regenerated before the commit that carries
/// them). `rustc` and `git` are asked at run time; a host without them
/// records `"unknown"`.
#[must_use]
pub fn host_info() -> Value {
    let ask = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    let unknown = || "unknown".to_owned();
    let git_rev = ask("git", &["rev-parse", "HEAD"]).map_or_else(unknown, |rev| {
        let dirty = ask("git", &["status", "--porcelain", "--untracked-files=no"])
            .is_some_and(|changes| !changes.is_empty());
        if dirty {
            rev + "+dirty"
        } else {
            rev
        }
    });
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Value::Obj(vec![
        ("nproc", Value::UInt(nproc as u64)),
        ("arch", Value::str(std::env::consts::ARCH)),
        ("rustc", Value::Str(ask("rustc", &["--version"]).unwrap_or_else(unknown))),
        ("git_rev", Value::Str(git_rev)),
    ])
}

/// One `BENCH_*.json` document before it is wrapped.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The `experiment` tag (`"e3"`, `"check"`, `"rt"`, …).
    pub experiment: &'static str,
    /// Master seed of the run.
    pub master_seed: u64,
    /// Whether the reduced battery ran.
    pub quick: bool,
    /// The sweep's timing; `None` for an artifact whose rows are
    /// themselves wall-clock measurements.
    pub timing: Option<Timing>,
    /// The table.
    pub rows: Vec<Value>,
    /// Further sections, after `rows`.
    pub extra: Vec<(&'static str, Value)>,
}

/// Totals over the rows of a timed battery (`rt`, `net`): the `summary`
/// line of the two load harnesses, their exit code, and the verdict
/// fields of their artifacts. Read from the rows' own `served`,
/// `abandoned`, `safety_violations`, `liveness_violations` and `settled`.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    /// Rows.
    pub cells: usize,
    /// Requests served, summed.
    pub served: u64,
    /// Requests abandoned, summed.
    pub abandoned: u64,
    /// Oracle violations of both kinds, summed.
    pub violations: u64,
    /// Rows whose run did not settle.
    pub unsettled: usize,
}

impl Verdict {
    /// Folds the rows.
    #[must_use]
    pub fn of(rows: &[Value]) -> Verdict {
        let sum = |key: &str| rows.iter().map(|row| row.get(key).num()).sum::<f64>() as u64;
        Verdict {
            cells: rows.len(),
            served: sum("served"),
            abandoned: sum("abandoned"),
            violations: sum("safety_violations") + sum("liveness_violations"),
            unsettled: rows.iter().filter(|row| *row.get("settled") != Value::Bool(true)).count(),
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Verdict { cells, served, abandoned, violations, unsettled } = self;
        write!(
            f,
            "summary cells={cells} served={served} abandoned={abandoned} \
             violations={violations} unsettled={unsettled}"
        )
    }
}

impl Artifact {
    /// The artifact of a timed battery: rows that are themselves
    /// wall-clock measurements at `tick` per protocol tick, with their
    /// [`Verdict`] beside them.
    #[must_use]
    pub fn measured(
        experiment: &'static str,
        master_seed: u64,
        quick: bool,
        tick: std::time::Duration,
        rows: Vec<Value>,
    ) -> Artifact {
        let verdict = Verdict::of(&rows);
        let extra = vec![
            ("violations", Value::UInt(verdict.violations)),
            ("all_settled", Value::Bool(verdict.unsettled == 0)),
            ("tick_us", Value::Num(tick.as_secs_f64() * 1e6)),
        ];
        Artifact { experiment, master_seed, quick, timing: None, rows, extra }
    }

    /// The one envelope: schema version, experiment, seed, battery, cell
    /// count (the sweep's, or else the rows'), the sweep timing when
    /// there is one, the host, the rows, then the extra sections.
    #[must_use]
    pub fn envelope(self) -> Value {
        let mut fields = vec![
            ("schema_version", Value::UInt(1)),
            ("experiment", Value::str(self.experiment)),
            ("master_seed", Value::UInt(self.master_seed)),
            ("quick", Value::Bool(self.quick)),
            ("cells", Value::UInt(self.timing.map_or(self.rows.len(), |t| t.cells) as u64)),
        ];
        if let Some(t) = self.timing {
            fields.extend([
                ("threads", Value::UInt(t.threads as u64)),
                ("wall_secs", Value::Num(t.wall_secs)),
                ("busy_secs", Value::Num(t.busy_secs)),
                ("parallel_speedup", Value::Num(t.speedup())),
            ]);
        }
        fields.extend([("host", host_info()), ("rows", Value::Arr(self.rows))]);
        fields.extend(self.extra);
        Value::Obj(fields)
    }

    /// Ends a report: prints the sweep footer, if sweep-timed, and writes
    /// the enveloped artifact to `path`, if one is given. A file that
    /// cannot be written exits 1.
    pub fn finish(self, path: Option<&str>) {
        if let Some(timing) = &self.timing {
            println!("{timing}");
        }
        if let Some(path) = path {
            match self.envelope().write_file(std::path::Path::new(path)) {
                Ok(()) => println!("   wrote {path}"),
                Err(err) => {
                    eprintln!("error: could not write {path}: {err}");
                    std::process::exit(1);
                }
            }
        }
    }
}
