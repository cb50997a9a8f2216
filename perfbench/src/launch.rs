//! Runs one `mcpath` process and measures it: wall time, the child's
//! own user+sys CPU time and its peak resident set size.
//!
//! Peak RSS comes from `wait4`, whose `ru_maxrss` is floored at the RSS
//! of the process that spawned the child. The harness holds every
//! generated circuit and oracle in memory, so it never spawns `mcpath`
//! itself: it spawns this module's small `launch` mode of its own
//! binary, which spawns `mcpath`, reaps it and prints one result line.

use std::io::Write as _;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What one launched process did.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Exit code, or `None` when the process was killed or timed out.
    pub code: Option<i32>,
    pub timed_out: bool,
    pub wall: Duration,
    pub cpu: Duration,
    pub maxrss_kb: u64,
}

impl Measured {
    pub fn ok(&self) -> bool {
        self.code == Some(0) && !self.timed_out
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn waitid(idtype: i32, id: u32, infop: *mut [u64; 16], options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const P_PID: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;

fn interrupted() -> bool {
    std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted
}

/// Spawns `argv` in `cwd` with stdout to `stdout_path`, waits at most
/// `timeout`, and measures it. This is the body of `perfbench launch`.
pub fn measure(cwd: &str, stdout_path: &str, timeout: Duration, argv: &[String]) -> Measured {
    let stdout = std::fs::File::create(stdout_path).expect("create the op's stdout file");
    let start = Instant::now();
    // Reaped below with `wait4`, which also yields the child's rusage.
    let pid = Command::new(&argv[0])
        .args(&argv[1..])
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(stdout)
        .spawn()
        .expect("spawn mcpath")
        .id();
    let (cancel, cancelled) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if cancelled.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout) {
            // SAFETY: plain syscall on integer arguments. The child is not
            // reaped before this thread is joined (the main thread waits
            // with WNOWAIT), so `pid` still names our child.
            unsafe { kill(pid as i32, SIGKILL) };
            return true;
        }
        false
    });
    let mut info = [0u64; 16];
    // SAFETY: `info` is a 128-byte buffer, the size of `siginfo_t`.
    while unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) } == -1 && interrupted() {}
    let wall = start.elapsed();
    drop(cancel);
    let timed_out = watchdog.join().expect("watchdog thread");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are valid, correctly sized out-params;
    // `pid` is our own unreaped child.
    while unsafe { wait4(pid as i32, &mut status, 0, &mut usage) } == -1 && interrupted() {}
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    let exited = status & 0x7f == 0;
    Measured {
        code: exited.then_some((status >> 8) & 0xff),
        timed_out,
        wall,
        cpu: Duration::from_micros(micros(&usage.utime) + micros(&usage.stime)),
        maxrss_kb: usage.maxrss.max(0) as u64,
    }
}

/// `perfbench launch <timeout-ms> <cwd> <stdout-file> <program> [args..]`:
/// measures one process and prints the result as one line.
pub fn launch_main(args: &[String]) -> i32 {
    if args.len() < 4 {
        eprintln!("usage: perfbench launch <timeout-ms> <cwd> <stdout-file> <program> [args..]");
        return 2;
    }
    let timeout = Duration::from_millis(args[0].parse().expect("timeout in ms"));
    let m = measure(&args[1], &args[2], timeout, &args[3..]);
    let line = format!(
        "{} {} {} {} {}\n",
        m.code.map_or(-1, i64::from),
        u8::from(m.timed_out),
        m.wall.as_nanos(),
        m.cpu.as_micros(),
        m.maxrss_kb
    );
    std::io::stdout()
        .write_all(line.as_bytes())
        .expect("write the launch result");
    0
}

/// Runs `argv` in `cwd` through the `launch` mode of this binary.
pub fn run(cwd: &str, stdout_path: &str, timeout: Duration, argv: &[String]) -> Measured {
    let me = std::env::current_exe().expect("locate the harness binary");
    let out = Command::new(me)
        .arg("launch")
        .arg(timeout.as_millis().to_string())
        .arg(cwd)
        .arg(stdout_path)
        .args(argv)
        .stdin(Stdio::null())
        .output()
        .expect("run the launcher");
    let text = String::from_utf8_lossy(&out.stdout);
    let f: Vec<i128> = text
        .split_whitespace()
        .map(|w| w.parse().expect("launcher output is numeric"))
        .collect();
    assert!(
        out.status.success() && f.len() == 5,
        "launcher failed: {text} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    Measured {
        code: (f[0] >= 0).then_some(f[0] as i32),
        timed_out: f[1] == 1,
        wall: Duration::from_nanos(f[2] as u64),
        cpu: Duration::from_micros(f[3] as u64),
        maxrss_kb: f[4] as u64,
    }
}
