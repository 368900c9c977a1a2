//! Shared pieces: command-line arguments, the correctness gate, latency
//! summaries, the machine fingerprint and the result line.

use qi_exec::{ExecConfig, Parallelism, Planning};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// The seed whose outputs are pinned by the committed digest files.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The benchmark package's directory (digests, notes, trace output).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Rewrite the committed digests for [`DEFAULT_SEED`] instead of
    /// measuring.
    pub bless: bool,
}

pub const USAGE: &str = "usage: qi-perfbench --workload <invert|exchange|serve> --seed <n> \
                         --seconds <s> --trace <0|1> [--bless]";

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut bless = false;
        while let Some(a) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
            match a.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    let v = value()?;
                    seed = Some(v.parse().map_err(|_| format!("bad --seed `{v}`"))?);
                }
                "--seconds" => {
                    let v = value()?;
                    let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {v}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("bad --trace `{v}` (0|1)")),
                    }
                }
                "--bless" => bless = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !matches!(workload.as_str(), "invert" | "exchange" | "serve") {
            return Err(format!("unknown workload `{workload}`"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace,
            bless,
        })
    }

    /// Measuring time of each pass: all of `--seconds`, or half of it
    /// for each of the untraced and the traced pass of a traced run.
    pub fn budget(&self) -> Duration {
        let passes = if self.trace { 2.0 } else { 1.0 };
        Duration::from_secs_f64(self.seconds / passes)
    }
}

/// The execution configuration every measured op runs under: the
/// program's defaults (parallelism and planning resolve automatically).
pub fn default_exec() -> ExecConfig {
    ExecConfig::default()
}

/// The determinism contract's reference configuration: one thread, no
/// join planning. Every other configuration must reproduce its outputs
/// byte for byte.
pub fn reference_exec() -> ExecConfig {
    ExecConfig::default()
        .with_parallelism(Parallelism::fixed(1))
        .with_planning(Planning::Off)
}

/// 64-bit FNV-1a: a stable digest of an output (the committed digest
/// files must not depend on the toolchain's hasher).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The correctness gate for ops whose outputs are pinned by digest at
/// [`DEFAULT_SEED`] and checked against the reference configuration at
/// every other seed (and past the end of the digest file).
pub struct Gate {
    digests: Vec<u64>,
    blessed: Vec<u64>,
    bless: bool,
    pub checked_by_digest: u64,
    pub checked_by_reference: u64,
    /// Human-readable descriptions of the first few misses.
    pub misses: Vec<String>,
}

impl Gate {
    /// `committed` is the digest file's text (one hex digest per op, in
    /// op order); it is used only at [`DEFAULT_SEED`].
    pub fn new(seed: u64, committed: &str, bless: bool) -> Gate {
        let digests = if seed == DEFAULT_SEED && !bless {
            committed
                .lines()
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .map(|l| u64::from_str_radix(l.trim(), 16).expect("digest file holds hex digests"))
                .collect()
        } else {
            Vec::new()
        };
        Gate {
            digests,
            blessed: Vec::new(),
            bless,
            checked_by_digest: 0,
            checked_by_reference: 0,
            misses: Vec::new(),
        }
    }

    /// Check op `index`'s output. `reference` recomputes the op under
    /// [`reference_exec`]; it runs only when no digest covers `index`.
    /// Returns whether the output is correct.
    pub fn check(
        &mut self,
        index: u64,
        what: &str,
        output: &str,
        reference: impl FnOnce() -> Result<String, String>,
    ) -> bool {
        if self.bless {
            assert_eq!(self.blessed.len() as u64, index, "ops are blessed in order");
            self.blessed.push(fnv64(output.as_bytes()));
            return true;
        }
        let ok = match self.digests.get(index as usize) {
            Some(&d) => {
                self.checked_by_digest += 1;
                fnv64(output.as_bytes()) == d
            }
            None => {
                self.checked_by_reference += 1;
                matches!(reference(), Ok(r) if r == output)
            }
        };
        if !ok {
            self.miss(format!(
                "check {index} ({what}): output differs from the expected one"
            ));
        }
        ok
    }

    pub fn miss(&mut self, msg: String) {
        if self.misses.len() < 8 {
            self.misses.push(msg);
        }
    }

    /// Write the blessed digests to `path`.
    pub fn write_blessed(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = writeln!(out, "# {header}");
        for d in &self.blessed {
            let _ = writeln!(out, "{d:016x}");
        }
        std::fs::write(path, out)
    }
}

/// Everything one run of a workload produced.
pub struct Outcome {
    /// Duration of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// The untraced pass: the end-to-end metrics.
    pub pass: Pass,
    /// The traced pass, its layer accumulators and its spans.
    pub traced: Option<(Pass, crate::trace::Layers, crate::trace::Tracer)>,
    /// The first few correctness misses, described.
    pub misses: Vec<String>,
    /// How outputs were checked.
    pub checks: String,
}

/// The measured side of one pass over a workload.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Per-op latency, milliseconds, in completion order.
    pub latencies_ms: Vec<f64>,
    /// Per-op kind (parallel to `latencies_ms`).
    pub kinds: Vec<&'static str>,
    /// Wall time the timed region took (checks excluded), seconds.
    pub timed_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Pass {
    pub fn record(&mut self, kind: &'static str, latency: Duration) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        self.kinds.push(kind);
        self.attempted += 1;
    }

    pub fn throughput(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.timed_s
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn mean_ms(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len().max(1) as f64
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Median latency per op kind, with counts.
    pub fn per_kind(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (k, l) in self.kinds.iter().zip(&self.latencies_ms) {
            by.entry(k).or_default().push(*l);
        }
        by.into_iter()
            .map(|(k, mut v)| {
                v.sort_by(f64::total_cmp);
                (k, (v.len(), quantile(&v, 0.5)))
            })
            .collect()
    }
}

/// Linear-interpolated quantile of sorted data.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// `VmHWM` (peak resident set) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Escape a string as a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a metric value as JSON: all digits, and `null` for a value
/// that is not a number.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unavailable".to_owned())
}

/// Digest of every source file the measured program is built from, so
/// that two results can be matched to one tree even outside git.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let root = bench_dir().join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            if let Ok(rel) = f.strip_prefix(&root) {
                all.extend_from_slice(rel.to_string_lossy().as_bytes());
            }
            all.extend_from_slice(&bytes);
        }
    }
    format!("{:016x}", fnv64(&all))
}

/// The machine fingerprint printed with every result.
pub fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unavailable".to_owned());
    let rustc = first_line_of(
        &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned()),
        &["-V"],
    );
    let commit = first_line_of(
        "git",
        &["-C", &bench_dir().to_string_lossy(), "rev-parse", "HEAD"],
    );
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"rustc\":{},\"commit\":{},\"source_digest\":{},\
         \"profile\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&commit),
        json_str(&source_digest()),
        json_str(profile),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}
