//! `logs-cron` plumbing shared by both binaries: exported log files in a
//! scratch directory that is removed on drop, and timed runs of the real
//! `segugio` binary.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use segugio_ingest::export_day;
use segugio_traffic::IspNetwork;

use crate::report::{out_dir, peak_rss_bytes};
use crate::workload::{build_world, timed, LogsSpec};

/// A per-process scratch directory under `out/`, deleted with everything
/// in it when dropped — the generated logs are hundreds of megabytes and
/// must neither linger nor be committed.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(label: &str) -> std::io::Result<WorkDir> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = out_dir()?.join(format!(
            "work-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // A leftover of a killed run with the same pid.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The exported days as one append-only log, the way a resolver's log
/// grows between cron runs: it holds every day but the last until
/// [`append_last_day`](LogFiles::append_last_day) adds that one, and
/// [`truncate_to_prefix`](LogFiles::truncate_to_prefix) takes it off again.
/// Beside it, the seed-list sidecars `segugio track` reads.
pub struct LogFiles {
    pub log: PathBuf,
    pub all_lines: u64,
    pub prefix_lines: u64,
    prefix_bytes: u64,
    last_day: String,
    pub blacklist: PathBuf,
    pub whitelist: PathBuf,
    pub world_build_s: f64,
    /// Seconds spent generating and exporting, one entry per day.
    pub day_gen_s: Vec<f64>,
}

impl LogFiles {
    /// Generates `spec.days` days and writes all but the last under `dir`.
    /// Returns the world too: its tables name the domains behind the lines.
    pub fn export(spec: &LogsSpec, dir: &Path) -> std::io::Result<(LogFiles, IspNetwork)> {
        let (mut world, world_build_s) = timed(|| build_world(&spec.isp, spec.warm_up));
        let log = dir.join("logs.tsv");
        let mut writer = BufWriter::new(File::create(&log)?);
        let (mut all_lines, mut prefix_lines, mut prefix_bytes) = (0u64, 0u64, 0u64);
        let mut last_day = String::new();
        let mut day_gen_s = Vec::new();
        for i in 0..spec.days {
            let start = crate::clock();
            let day = world.next_day();
            let text = export_day(world.table(), day.day.0, &day.queries, &day.resolutions);
            all_lines += day.queries.len() as u64;
            if i + 1 < spec.days {
                writer.write_all(text.as_bytes())?;
                prefix_lines += day.queries.len() as u64;
                prefix_bytes += text.len() as u64;
            } else {
                last_day = text;
            }
            day_gen_s.push(start.elapsed().as_secs_f64());
        }
        writer.flush()?;

        let blacklist = dir.join("blacklist.tsv");
        let mut text = String::new();
        for (domain, added) in world.commercial_blacklist().iter() {
            text.push_str(&format!("{}\t{}\n", world.table().name(domain), added.0));
        }
        std::fs::write(&blacklist, text)?;
        let whitelist = dir.join("whitelist.txt");
        let mut text = String::new();
        for e2ld in world.whitelist().iter() {
            text.push_str(world.table().e2ld_str(e2ld));
            text.push('\n');
        }
        std::fs::write(&whitelist, text)?;

        let files = LogFiles {
            log,
            all_lines,
            prefix_lines,
            prefix_bytes,
            last_day,
            blacklist,
            whitelist,
            world_build_s,
            day_gen_s,
        };
        Ok((files, world))
    }

    /// The log gains its last day.
    pub fn append_last_day(&self) -> std::io::Result<()> {
        let mut log = std::fs::OpenOptions::new().append(true).open(&self.log)?;
        log.write_all(self.last_day.as_bytes())
    }

    /// Back to the log as the backfill saw it.
    pub fn truncate_to_prefix(&self) -> std::io::Result<()> {
        File::options()
            .write(true)
            .open(&self.log)?
            .set_len(self.prefix_bytes)
    }
}

/// The `segugio` binary, built into the same target directory as this
/// harness (`run.sh` builds both).
pub fn segugio_bin() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    // Binaries sit beside it; test executables one level below, in `deps/`.
    exe.ancestors()
        .skip(1)
        .take(2)
        .map(|dir| dir.join("segugio"))
        .find(|candidate| candidate.is_file())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!(
                    "no `segugio` binary beside {}: build it first (run.sh does)",
                    exe.display()
                ),
            )
        })
}

/// For the self-tests: [`segugio_bin`], building the binary first (same
/// profile and target directory as the running test) when it is missing.
#[doc(hidden)]
pub fn segugio_bin_built_for_tests() -> std::io::Result<PathBuf> {
    if let Ok(bin) = segugio_bin() {
        return Ok(bin);
    }
    // A test executable is `<target>/<profile>/deps/<name>`.
    let exe = std::env::current_exe()?;
    let target = exe
        .ancestors()
        .nth(3)
        .ok_or_else(|| std::io::Error::other("test executable outside a target directory"))?;
    let mut cargo = Command::new("cargo");
    cargo
        .args([
            "build",
            "--offline",
            "--quiet",
            "-p",
            "segugio-eval",
            "--bin",
            "segugio",
        ])
        .arg("--manifest-path")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
        .arg("--target-dir")
        .arg(target);
    if !cfg!(debug_assertions) {
        cargo.arg("--release");
    }
    if !cargo.status()?.success() {
        return Err(std::io::Error::other("building the segugio binary failed"));
    }
    segugio_bin()
}

/// One finished `segugio track` process.
#[derive(Debug, Clone)]
pub struct ChildRun {
    pub wall_s: f64,
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
    pub peak_rss_bytes: u64,
}

impl ChildRun {
    /// The per-day lines `segugio track` printed.
    pub fn day_lines(&self) -> Vec<&str> {
        self.stdout
            .lines()
            .filter(|l| l.starts_with("day "))
            .collect()
    }

    /// The closing `tracked N day(s): P flagged pending, C confirmed` line.
    pub fn summary(&self) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with("tracked "))
            .unwrap_or("")
    }
}

/// Runs `segugio track` on the log as it stands to completion, timing it
/// from spawn to exit and sampling the child's peak RSS while it runs.
pub fn run_track(
    bin: &Path,
    files: &LogFiles,
    checkpoint_dir: Option<&Path>,
) -> std::io::Result<ChildRun> {
    let mut command = Command::new(bin);
    command
        .arg("track")
        .arg("--logs")
        .arg(&files.log)
        .arg("--blacklist")
        .arg(&files.blacklist)
        .arg("--whitelist")
        .arg(&files.whitelist)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(dir) = checkpoint_dir {
        command.arg("--checkpoint-dir").arg(dir);
    }
    let start = crate::clock();
    let mut child = command.spawn()?;
    let mut peak = 0u64;
    // The child prints a dozen short lines, far below a pipe's capacity,
    // so it never blocks on us while we poll.
    let wall_s = loop {
        if child.try_wait()?.is_some() {
            break start.elapsed().as_secs_f64();
        }
        peak = peak.max(peak_rss_bytes(child.id()).unwrap_or(0));
        std::thread::sleep(Duration::from_millis(2));
    };
    let output = child.wait_with_output()?;
    Ok(ChildRun {
        wall_s,
        success: output.status.success(),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
        peak_rss_bytes: peak,
    })
}

/// Copies the files of `from` into a new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Size of the newest checkpoint generation in `dir`.
pub fn newest_checkpoint_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut newest: Option<(std::time::SystemTime, u64)> = None;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            let stamp = (meta.modified()?, meta.len());
            if newest.is_none_or(|n| stamp.0 > n.0) {
                newest = Some(stamp);
            }
        }
    }
    newest
        .map(|(_, len)| len)
        .ok_or_else(|| std::io::Error::other("no checkpoint generation written"))
}
