//! `hotspots` — where the figure workloads spend their CPU time.
//!
//! A sampling profiler in the tree, so a layer attribution can be
//! reproduced from a checkout. It samples the interrupted instruction
//! pointer on the process's CPU-time profiling timer (`ITIMER_PROF`,
//! read from the `SIGPROF` handler's `ucontext`) while it drives one of
//! three workloads in-process:
//!
//! - `cold`: the Figs. 10–12 grids simulated serially with the cache
//!   detached — the kernel's profile (figbench's figs-cold grid);
//! - `closed`: `--replays N` serial runs of the closed-loop sweep
//!   (default 20) with the cache detached — the kernel under host window
//!   gating, ECN links and Counters telemetry (figbench's closed-loop
//!   grid);
//! - `warm`: `--replays N` warm replays of the Figs. 10–12 grids
//!   (default 20), each over a fresh copy of the `.mnres` entries of
//!   `--cache DIR` (default `results/cache`) — the campaign layer's
//!   profile. Sampling pauses while a copy is made.
//!
//! The timer is asked for one sample per millisecond of CPU time, but it
//! ticks at the kernel's timer rate, so a 250 Hz kernel records one per
//! 4 ms. The report therefore prints the CPU seconds sampled and the
//! measured milliseconds per sample. It then splits the samples by
//! mapping (this executable, libc, the rest) and lists the `--top K`
//! hottest executable addresses (default 40), which
//! `addr2line -f -i -C -e <exe>` symbolizes. A syscall's time lands on
//! its libc wrapper: the signal arrives as the call returns.
//!
//! ```text
//! cargo build --release -p mn-bench --bin hotspots
//! ./target/release/hotspots cold
//! ./target/release/hotspots closed --replays 10
//! ./target/release/hotspots warm --replays 40 --cache results/cache
//! ```
//!
//! Linux x86_64 only; on any other target it says so and exits.
//! `MN_REQUESTS` and `MN_SEED` shape the grids as they do for `fig10`.

#![warn(unreachable_pub)]

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match sampler::run(&args) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("hotspots: {err}");
            eprintln!("usage: hotspots cold|closed|warm [--replays N] [--cache DIR] [--top K]");
            std::process::ExitCode::from(2)
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() -> std::process::ExitCode {
    eprintln!("hotspots: unsupported on this target (it reads x86_64 Linux signal contexts)");
    std::process::ExitCode::FAILURE
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::collections::HashMap;
    use std::ffi::{c_int, c_void};
    use std::fs;
    use std::io::{self, Read as _, Seek as _, SeekFrom};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    use mn_bench::figures::{closed_loop, fig10, fig11, fig12};
    use mn_bench::Harness;

    /// Samples kept: at least 256 s of CPU time, since the timer never
    /// fires more than once per millisecond (about 1,000 s at one per
    /// 4 ms).
    const CAP: usize = 1 << 18;
    static SAMPLES: [AtomicU64; CAP] = [const { AtomicU64::new(0) }; CAP];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    const SIGPROF: c_int = 27;
    const ITIMER_PROF: c_int = 2;
    const SA_SIGINFO: c_int = 4;
    const SA_RESTART: c_int = 0x1000_0000;
    /// `offsetof(ucontext_t, uc_mcontext.gregs[REG_RIP])` on x86_64 Linux:
    /// `uc_flags`, `uc_link` and the 24-byte `uc_stack` come first (40
    /// bytes), then the general registers, of which RIP is number 16.
    const UC_RIP: usize = 40 + 16 * 8;

    /// glibc's `struct sigaction` on x86_64.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: c_int,
        restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    /// glibc's `struct rusage` on x86_64: two `timeval`s, then fourteen
    /// `long` counters this program does not read.
    #[repr(C)]
    struct RUsage {
        utime: TimeVal,
        stime: TimeVal,
        counters: [i64; 14],
    }

    const RUSAGE_SELF: c_int = 0;

    extern "C" {
        fn sigaction(signum: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
        fn setitimer(which: c_int, new: *const ITimerVal, old: *mut ITimerVal) -> c_int;
        fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
    }

    /// The `SIGPROF` handler: records the interrupted RIP.
    ///
    /// # Safety
    ///
    /// `context` must point to the interrupted thread's `ucontext_t`, as
    /// the kernel passes it to an `SA_SIGINFO` handler; only
    /// [`install_handler`] hands this function out.
    unsafe extern "C" fn on_sigprof(_signum: c_int, _info: *mut c_void, context: *mut c_void) {
        // SAFETY: the caller passes a `ucontext_t`, whose saved RIP sits
        // at `UC_RIP`.
        let rip = unsafe { context.cast::<u8>().add(UC_RIP).cast::<u64>().read() };
        let slot = TAKEN.fetch_add(1, Ordering::Relaxed);
        if slot < CAP {
            SAMPLES[slot].store(rip, Ordering::Relaxed);
        }
    }

    fn install_handler() -> io::Result<()> {
        let action = SigAction {
            handler: on_sigprof as unsafe extern "C" fn(c_int, *mut c_void, *mut c_void) as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `action` is a valid glibc `struct sigaction`, and the
        // handler only touches atomics, which is async-signal-safe.
        if unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// The process's CPU time so far (user and system, all threads), in
    /// seconds: what `ITIMER_PROF` counts down.
    fn cpu_seconds() -> io::Result<f64> {
        let mut usage = RUsage {
            utime: TimeVal { sec: 0, usec: 0 },
            stime: TimeVal { sec: 0, usec: 0 },
            counters: [0; 14],
        };
        // SAFETY: `usage` is a valid, writable glibc `struct rusage`.
        if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
        Ok(secs(&usage.utime) + secs(&usage.stime))
    }

    /// Arms the profiling timer at 1 ms of CPU time, or disarms it.
    fn arm(on: bool) -> io::Result<()> {
        let usec = i64::from(on) * 1000;
        let period = ITimerVal {
            interval: TimeVal { sec: 0, usec },
            value: TimeVal { sec: 0, usec },
        };
        // SAFETY: `period` is a valid `struct itimerval`; the old value is
        // not requested.
        if unsafe { setitimer(ITIMER_PROF, &period, std::ptr::null_mut()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Mode {
        Cold,
        Closed,
        Warm,
    }

    struct Options {
        mode: Mode,
        replays: usize,
        cache: PathBuf,
        top: usize,
    }

    fn parse(args: &[String]) -> Result<Options, String> {
        let (mode, flags) = args.split_first().ok_or("a workload is required")?;
        let mut options = Options {
            mode: match mode.as_str() {
                "cold" => Mode::Cold,
                "closed" => Mode::Closed,
                "warm" => Mode::Warm,
                other => return Err(format!("unknown workload {other}")),
            },
            replays: 20,
            cache: PathBuf::from("results/cache"),
            top: 40,
        };
        for pair in flags.chunks(2) {
            let [flag, value] = pair else {
                return Err(format!("{} needs a value", pair[0]));
            };
            let number = || {
                value
                    .parse::<usize>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--replays" => options.replays = number()?.max(1),
                "--top" => options.top = number()?,
                "--cache" => options.cache = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(options)
    }

    /// Figs. 10–12, run and rendered as their binaries do.
    fn figures(harness: &mut Harness) -> String {
        [fig10, fig11, fig12]
            .into_iter()
            .map(|figure| harness.render(figure()))
            .collect()
    }

    /// Copies the `.mnres` entries of `source` into a new directory `dir`.
    fn copy_entries(source: &Path, dir: &Path) -> io::Result<usize> {
        fs::create_dir_all(dir)?;
        let mut copied = 0;
        for entry in fs::read_dir(source)? {
            let path = entry?.path();
            if path.extension().is_some_and(|ext| ext == "mnres") {
                fs::copy(
                    &path,
                    dir.join(path.file_name().expect("an entry has a name")),
                )?;
                copied += 1;
            }
        }
        Ok(copied)
    }

    /// Runs `work` with the timer armed; returns the CPU seconds it took.
    fn sampled(work: impl FnOnce()) -> Result<f64, String> {
        let start = cpu_seconds().map_err(|e| format!("getrusage: {e}"))?;
        arm(true).map_err(|e| format!("setitimer: {e}"))?;
        work();
        arm(false).map_err(|e| format!("setitimer: {e}"))?;
        Ok(cpu_seconds().map_err(|e| format!("getrusage: {e}"))? - start)
    }

    pub(super) fn run(args: &[String]) -> Result<(), String> {
        let options = parse(args)?;
        install_handler().map_err(|e| format!("sigaction: {e}"))?;
        let mut cpu = 0.0;
        match options.mode {
            Mode::Warm => {
                let scratch =
                    std::env::temp_dir().join(format!("mncube-hotspots-{}", std::process::id()));
                for replay in 0..options.replays {
                    let dir = scratch.join(replay.to_string());
                    let copied = copy_entries(&options.cache, &dir)
                        .map_err(|e| format!("copy {}: {e}", options.cache.display()))?;
                    if copied == 0 {
                        return Err(format!("no .mnres entries in {}", options.cache.display()));
                    }
                    cpu += sampled(|| {
                        std::hint::black_box(figures(&mut Harness::with_cache(1, &dir)));
                    })?;
                    let _ = fs::remove_dir_all(&dir);
                }
                let _ = fs::remove_dir_all(&scratch);
            }
            Mode::Closed => {
                cpu += sampled(|| {
                    let mut harness = Harness::bare(1);
                    for _ in 0..options.replays {
                        std::hint::black_box(harness.render(closed_loop()));
                    }
                })?;
            }
            Mode::Cold => {
                cpu += sampled(|| {
                    std::hint::black_box(figures(&mut Harness::bare(1)));
                })?;
            }
        }
        let taken = TAKEN.load(Ordering::Relaxed).min(CAP);
        let samples: Vec<u64> = SAMPLES[..taken]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        report(&samples, cpu, options.top).map_err(|e| format!("report: {e}"))
    }

    /// One executable mapping of `/proc/self/maps`.
    struct Mapping {
        start: u64,
        end: u64,
        offset: u64,
        path: String,
    }

    fn mappings() -> io::Result<Vec<Mapping>> {
        let maps = fs::read_to_string("/proc/self/maps")?;
        let mut out = Vec::new();
        for line in maps.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [range, perms, offset, _dev, _inode, rest @ ..] = fields.as_slice() else {
                continue;
            };
            if !perms.contains('x') {
                continue;
            }
            let Some((start, end)) = range.split_once('-') else {
                continue;
            };
            let hex = |s: &str| u64::from_str_radix(s, 16).unwrap_or(0);
            out.push(Mapping {
                start: hex(start),
                end: hex(end),
                offset: hex(offset),
                path: rest.first().map_or("[anonymous]", |p| p).to_string(),
            });
        }
        Ok(out)
    }

    /// The executable's `PT_LOAD` segments as `(file offset, vaddr, file
    /// size)`, to turn a file offset into the address `addr2line` takes.
    fn load_segments(exe: &Path) -> io::Result<Vec<(u64, u64, u64)>> {
        let mut file = fs::File::open(exe)?;
        let mut header = [0u8; 64];
        file.read_exact(&mut header)?;
        if &header[..4] != b"\x7fELF" || header[4] != 2 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not ELF64"));
        }
        let u16_at = |b: &[u8], at: usize| usize::from(u16::from_le_bytes([b[at], b[at + 1]]));
        let u64_at = |b: &[u8], at: usize| {
            u64::from_le_bytes(b[at..at + 8].try_into().expect("eight bytes"))
        };
        let (entry_size, count) = (u16_at(&header, 0x36), u16_at(&header, 0x38));
        let mut table = vec![0u8; entry_size * count];
        file.seek(SeekFrom::Start(u64_at(&header, 0x20)))?;
        file.read_exact(&mut table)?;
        const PT_LOAD: u32 = 1;
        Ok(table
            .chunks(entry_size)
            .filter(|ph| u32::from_le_bytes(ph[..4].try_into().expect("four bytes")) == PT_LOAD)
            .map(|ph| (u64_at(ph, 8), u64_at(ph, 16), u64_at(ph, 32)))
            .collect())
    }

    fn report(samples: &[u64], cpu: f64, top: usize) -> io::Result<()> {
        let exe = fs::canonicalize("/proc/self/exe")?;
        let exe_name = exe.display().to_string();
        let maps = mappings()?;
        let segments = load_segments(&exe)?;
        let mut by_mapping: HashMap<&str, usize> = HashMap::new();
        let mut by_address: HashMap<u64, usize> = HashMap::new();
        for &rip in samples {
            let Some(map) = maps.iter().find(|m| (m.start..m.end).contains(&rip)) else {
                *by_mapping.entry("[unmapped]").or_default() += 1;
                continue;
            };
            *by_mapping.entry(&map.path).or_default() += 1;
            if map.path == exe_name {
                let file_offset = rip - map.start + map.offset;
                let address = segments
                    .iter()
                    .find(|(off, _, size)| (*off..off + size).contains(&file_offset))
                    .map_or(file_offset, |(off, vaddr, _)| file_offset - off + vaddr);
                *by_address.entry(address).or_default() += 1;
            }
        }

        let total = samples.len().max(1) as f64;
        let share = |n: usize| 100.0 * n as f64 / total;
        println!(
            "{} samples over {cpu:.2} s of CPU time, one per {:.2} ms \
             (main and worker threads together)",
            samples.len(),
            cpu * 1e3 / total,
        );
        let libc: usize = by_mapping
            .iter()
            .filter(|(path, _)| path.contains("/libc.so") || path.contains("/libc-"))
            .map(|(_, n)| n)
            .sum();
        let own = by_mapping.get(exe_name.as_str()).copied().unwrap_or(0);
        println!(
            "split: {:.1}% this executable, {:.1}% libc, {:.1}% elsewhere",
            share(own),
            share(libc),
            share(samples.len() - own - libc)
        );
        let mut mappings: Vec<(&str, usize)> = by_mapping.into_iter().collect();
        mappings.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        println!("\n{:>8} {:>7}  mapping", "samples", "share");
        for (path, n) in &mappings {
            println!("{n:>8} {:>6.1}%  {path}", share(*n));
        }

        let mut hottest: Vec<(u64, usize)> = by_address.into_iter().collect();
        hottest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hottest.truncate(top);
        println!(
            "\n{:>8} {:>7}  address (symbolize with addr2line)",
            "samples", "share"
        );
        for (address, n) in &hottest {
            println!("{n:>8} {:>6.1}%  {address:#x}", share(*n));
        }
        let addresses: Vec<String> = hottest.iter().map(|(a, _)| format!("{a:#x}")).collect();
        println!("\naddr2line -f -i -C -e {exe_name} {}", addresses.join(" "));
        Ok(())
    }
}
