//! # tsg_faults — deterministic, seeded fault injection
//!
//! The serving/storage stack survives production failures (EINTR storms,
//! ECONNRESET, short reads/writes, torn files, crashes mid-write) only if
//! those failures can be *reproduced on demand*. This crate is the single
//! seam: I/O call sites in `tsg_serve` (epoll wait, accept, connection
//! read/write) and the atomic file machinery in `tsg_datasets::cache` /
//! `tsg_serve::snapshot` consult it before touching the kernel, and it
//! answers — deterministically, from a per-site splitmix64 stream — whether
//! to inject a fault instead.
//!
//! ## Zero cost when disabled
//!
//! Everything is gated behind the `injection` cargo feature. With the
//! feature OFF (the default, and the state of every plain
//! `cargo build --release`), every seam function is an `#[inline(always)]`
//! constant (`None` / `0` / passthrough): the optimizer erases the call and
//! the hot path carries **no branch**. `cargo test` turns the feature on
//! through dev-dependency feature unification; release binaries opt in
//! explicitly via the consumers' `fault-injection` forwarding features.
//!
//! ## Activation (feature ON)
//!
//! Even when compiled in, injection is off until a plan is installed:
//!
//! * env: `TSG_FAULT_SEED=<u64>` + `TSG_FAULT_PLAN=<site:fault:rate,...>`
//!   read once at first seam use (how the chaos CI step drives release
//!   binaries);
//! * programmatic: [`configure`] / [`disable`] (how `tests/chaos.rs` swaps
//!   schedules between in-process servers).
//!
//! Plan grammar: comma-separated `site:fault:rate` triples, e.g.
//! `conn_read:eintr:0.05,conn_write:short:0.2,snap_write:torn:1`. Sites and
//! faults are listed in [`Site`] and [`Fault`]; `rate` is a probability in
//! `[0, 1]` evaluated against the site's own seeded stream, so a given
//! (seed, plan) pair yields the same fault schedule on every run.

use std::io;

/// Injection points. Network sites take network faults
/// (`eintr`/`eagain`/`short`/`reset`/`err`); file sites take file faults
/// (`err`, plus `torn`/`bitflip` on the write sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Nonblocking connection read in the event loop.
    ConnRead,
    /// Nonblocking connection write/flush in the event loop.
    ConnWrite,
    /// `accept(2)` on the listener.
    Accept,
    /// `epoll_wait(2)` in the epoll shim.
    EpollWait,
    /// Dataset cache: file open for read.
    CacheOpen,
    /// Dataset cache: payload write to the tmp file.
    CacheWrite,
    /// Dataset cache: tmp → final rename.
    CacheRename,
    /// Dataset cache: fsync of the tmp file.
    CacheSync,
    /// Model snapshot: file open/read.
    SnapOpen,
    /// Model snapshot: payload write to the tmp file.
    SnapWrite,
    /// Model snapshot: tmp → final rename.
    SnapRename,
    /// Model snapshot: fsync of the tmp file.
    SnapSync,
}

/// Number of [`Site`] variants (per-site stream table size).
#[cfg(feature = "injection")]
const N_SITES: usize = 12;

impl Site {
    /// Dense index for the per-site stream table.
    #[cfg(feature = "injection")]
    fn index(self) -> usize {
        match self {
            Site::ConnRead => 0,
            Site::ConnWrite => 1,
            Site::Accept => 2,
            Site::EpollWait => 3,
            Site::CacheOpen => 4,
            Site::CacheWrite => 5,
            Site::CacheRename => 6,
            Site::CacheSync => 7,
            Site::SnapOpen => 8,
            Site::SnapWrite => 9,
            Site::SnapRename => 10,
            Site::SnapSync => 11,
        }
    }

    /// Plan-grammar name.
    pub fn name(self) -> &'static str {
        match self {
            Site::ConnRead => "conn_read",
            Site::ConnWrite => "conn_write",
            Site::Accept => "accept",
            Site::EpollWait => "epoll_wait",
            Site::CacheOpen => "cache_open",
            Site::CacheWrite => "cache_write",
            Site::CacheRename => "cache_rename",
            Site::CacheSync => "cache_sync",
            Site::SnapOpen => "snap_open",
            Site::SnapWrite => "snap_write",
            Site::SnapRename => "snap_rename",
            Site::SnapSync => "snap_sync",
        }
    }

    /// Parses a plan-grammar site name.
    pub fn from_name(s: &str) -> Option<Site> {
        Some(match s {
            "conn_read" => Site::ConnRead,
            "conn_write" => Site::ConnWrite,
            "accept" => Site::Accept,
            "epoll_wait" => Site::EpollWait,
            "cache_open" => Site::CacheOpen,
            "cache_write" => Site::CacheWrite,
            "cache_rename" => Site::CacheRename,
            "cache_sync" => Site::CacheSync,
            "snap_open" => Site::SnapOpen,
            "snap_write" => Site::SnapWrite,
            "snap_rename" => Site::SnapRename,
            "snap_sync" => Site::SnapSync,
            _ => return None,
        })
    }

    /// Whether this is a file-machinery site (vs a network site).
    #[cfg(feature = "injection")]
    fn is_file(self) -> bool {
        self.index() >= Site::CacheOpen.index()
    }

    /// Whether torn/bit-flip faults make sense here (payload write sites).
    #[cfg(feature = "injection")]
    fn is_payload_write(self) -> bool {
        matches!(self, Site::CacheWrite | Site::SnapWrite)
    }
}

/// Fault kinds, as they appear in the plan grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `EINTR` — the call was interrupted; callers must retry.
    Eintr,
    /// `EAGAIN`/`EWOULDBLOCK` — spurious readiness; callers must re-arm.
    Eagain,
    /// Short read/write — the kernel moved fewer bytes than asked.
    Short,
    /// `ECONNRESET` — the peer vanished mid-conversation.
    Reset,
    /// A generic I/O error (`EIO`-flavoured).
    Err,
    /// Torn write: only a prefix of the payload reaches the file, but the
    /// operation *reports success* — the corruption is installed.
    Torn,
    /// One seeded bit of the payload is flipped, operation reports success.
    BitFlip,
}

impl Fault {
    /// Parses a plan-grammar fault name.
    pub fn from_name(s: &str) -> Option<Fault> {
        Some(match s {
            "eintr" => Fault::Eintr,
            "eagain" => Fault::Eagain,
            "short" => Fault::Short,
            "reset" => Fault::Reset,
            "err" => Fault::Err,
            "torn" => Fault::Torn,
            "bitflip" => Fault::BitFlip,
            _ => return None,
        })
    }

    /// Whether this fault is applicable at `site` (checked at plan parse).
    #[cfg(feature = "injection")]
    fn valid_at(self, site: Site) -> bool {
        match self {
            Fault::Err => true,
            Fault::Torn | Fault::BitFlip => site.is_payload_write(),
            Fault::Eintr => !site.is_file(),
            Fault::Eagain | Fault::Short | Fault::Reset => {
                !site.is_file() && site != Site::EpollWait && site != Site::Accept
            }
        }
    }
}

/// Outcome a network seam caller must apply *instead of* (or constraining)
/// the real syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Behave as if the syscall returned `EINTR`.
    Interrupt,
    /// Behave as if the syscall returned `EAGAIN`.
    WouldBlock,
    /// Perform the real call, but move at most one byte.
    Short,
    /// Behave as if the syscall returned `ECONNRESET`.
    Reset,
    /// Behave as if the syscall failed with a generic I/O error.
    Err,
}

/// Outcome a file seam applies. Payload values carry seeded randomness for
/// the cut/flip position so the schedule stays deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileFault {
    /// Fail the operation with a generic I/O error.
    Err,
    /// Write only a seeded prefix of the payload, report success.
    Torn(u64),
    /// Flip one seeded bit of the payload, report success.
    BitFlip(u64),
}

/// The generic injected I/O error.
fn injected_err() -> io::Error {
    io::Error::other("injected fault (tsg_faults)")
}

/// splitmix64: advances `state` and returns the next output. Deterministic,
/// full-period and cheap; it drives the per-site fault streams here and the
/// seeded load of `serve_loadgen`, so both replay exactly from one seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(feature = "injection")]
mod active {
    use super::{splitmix64, Fault, Site, N_SITES};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, Once};

    /// Fast-path gate: seams return `None` without locking when false.
    static ENABLED: AtomicBool = AtomicBool::new(false);
    /// Total faults actually injected (exported at `/metrics`).
    static INJECTED: AtomicU64 = AtomicU64::new(0);
    /// The installed plan; `None` while disabled.
    static PLAN: Mutex<Option<Plan>> = Mutex::new(None);
    /// One-shot env pickup (`TSG_FAULT_SEED`/`TSG_FAULT_PLAN`).
    static ENV_INIT: Once = Once::new();

    struct SiteRule {
        fault: Fault,
        rate: f64,
    }

    struct SiteState {
        rules: Vec<SiteRule>,
        rng: u64,
    }

    pub(super) struct Plan {
        sites: Vec<Option<SiteState>>,
    }

    /// Parses `site:fault:rate,...` into a plan with per-site streams
    /// derived from `seed`.
    pub(super) fn parse_plan(seed: u64, text: &str) -> Result<Plan, String> {
        let mut sites: Vec<Option<SiteState>> = Vec::with_capacity(N_SITES);
        for _ in 0..N_SITES {
            sites.push(None);
        }
        let mut any = false;
        for item in text.split([',', ';']) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let mut parts = item.split(':');
            let (site_s, fault_s, rate_s) =
                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some(s), Some(f), Some(r), None) => (s.trim(), f.trim(), r.trim()),
                    _ => {
                        return Err(format!(
                            "malformed plan item `{item}` (want site:fault:rate)"
                        ))
                    }
                };
            let site = Site::from_name(site_s)
                .ok_or_else(|| format!("unknown fault site `{site_s}` in `{item}`"))?;
            let fault = Fault::from_name(fault_s)
                .ok_or_else(|| format!("unknown fault kind `{fault_s}` in `{item}`"))?;
            if !fault.valid_at(site) {
                return Err(format!(
                    "fault `{fault_s}` is not applicable at site `{site_s}`"
                ));
            }
            let rate: f64 = rate_s
                .parse()
                .map_err(|_| format!("bad rate `{rate_s}` in `{item}`"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate `{rate_s}` outside [0, 1] in `{item}`"));
            }
            let idx = site.index();
            if let Some(slot) = sites.get_mut(idx) {
                let state = slot.get_or_insert_with(|| SiteState {
                    rules: Vec::new(),
                    // distinct stream per site, decorrelated from `seed` itself
                    rng: {
                        let mut s = seed ^ (idx as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
                        splitmix64(&mut s);
                        s
                    },
                });
                state.rules.push(SiteRule { fault, rate });
                any = true;
            }
        }
        if !any {
            return Err("empty fault plan".to_string());
        }
        Ok(Plan { sites })
    }

    /// Installs a plan and arms the seams.
    pub(super) fn install(plan: Plan) {
        if let Ok(mut guard) = PLAN.lock() {
            *guard = Some(plan);
            ENABLED.store(true, Ordering::Release);
        }
    }

    /// Disarms the seams and drops the plan.
    pub(super) fn clear() {
        ENABLED.store(false, Ordering::Release);
        if let Ok(mut guard) = PLAN.lock() {
            *guard = None;
        }
    }

    /// Marks env pickup as done (used by programmatic `configure` so a
    /// later seam call cannot override it from the environment).
    pub(super) fn consume_env_init() {
        ENV_INIT.call_once(|| {});
    }

    /// One-shot env configuration. A malformed plan is reported to stderr
    /// and injection stays off — a chaos run with a typo'd plan must not
    /// silently masquerade as a clean run, so the message is loud.
    fn init_from_env() {
        // this file is a documented env entry point (ENV_ENTRY_POINTS in
        // tsg_analyze): TSG_FAULT_SEED/TSG_FAULT_PLAN are read exactly once
        let plan_text = match std::env::var("TSG_FAULT_PLAN") {
            Ok(v) if !v.trim().is_empty() => v,
            _ => return,
        };
        let seed: u64 = std::env::var("TSG_FAULT_SEED")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        match parse_plan(seed, &plan_text) {
            Ok(plan) => {
                install(plan);
                eprintln!("tsg_faults: armed from env (seed {seed}, plan `{plan_text}`)");
            }
            Err(e) => eprintln!("tsg_faults: ignoring TSG_FAULT_PLAN: {e}"),
        }
    }

    /// Draws from `site`'s stream: the scheduled fault plus a payload word
    /// (cut/flip position), or `None`. Every applied fault is counted.
    pub(super) fn draw(site: Site) -> Option<(Fault, u64)> {
        ENV_INIT.call_once(init_from_env);
        if !ENABLED.load(Ordering::Acquire) {
            return None;
        }
        let mut guard = PLAN.lock().ok()?;
        let state = guard.as_mut()?.sites.get_mut(site.index())?.as_mut()?;
        for i in 0..state.rules.len() {
            let (fault, rate) = match state.rules.get(i) {
                Some(r) => (r.fault, r.rate),
                None => break,
            };
            // 53-bit uniform in [0, 1)
            let u = (splitmix64(&mut state.rng) >> 11) as f64 / (1u64 << 53) as f64;
            if u < rate {
                let payload = splitmix64(&mut state.rng);
                INJECTED.fetch_add(1, Ordering::Relaxed);
                return Some((fault, payload));
            }
        }
        None
    }

    pub(super) fn injected_total() -> u64 {
        INJECTED.load(Ordering::Relaxed)
    }

    pub(super) fn is_active() -> bool {
        ENABLED.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------
// Public seam API — feature ON: consult the plan.
// ---------------------------------------------------------------------------

/// Installs a fault plan programmatically (see the plan grammar above) and
/// arms the seams. Process-global; tests serialise calls themselves.
#[cfg(feature = "injection")]
pub fn configure(seed: u64, plan: &str) -> Result<(), String> {
    active::consume_env_init();
    let plan = active::parse_plan(seed, plan)?;
    active::install(plan);
    Ok(())
}

/// Disarms the seams and drops the installed plan.
#[cfg(feature = "injection")]
pub fn disable() {
    active::consume_env_init();
    active::clear();
}

/// Whether a fault plan is currently armed.
#[cfg(feature = "injection")]
pub fn is_active() -> bool {
    active::is_active()
}

/// Total number of faults injected so far in this process.
#[cfg(feature = "injection")]
pub fn injected_total() -> u64 {
    active::injected_total()
}

/// Consults the plan at a network site.
#[cfg(feature = "injection")]
pub fn net_fault(site: Site) -> Option<NetFault> {
    match active::draw(site) {
        Some((Fault::Eintr, _)) => Some(NetFault::Interrupt),
        Some((Fault::Eagain, _)) => Some(NetFault::WouldBlock),
        Some((Fault::Short, _)) => Some(NetFault::Short),
        Some((Fault::Reset, _)) => Some(NetFault::Reset),
        Some((Fault::Err, _)) => Some(NetFault::Err),
        _ => None,
    }
}

/// Consults the plan at a file site.
#[cfg(feature = "injection")]
pub fn file_fault(site: Site) -> Option<FileFault> {
    match active::draw(site) {
        Some((Fault::Err, _)) => Some(FileFault::Err),
        Some((Fault::Torn, payload)) => Some(FileFault::Torn(payload)),
        Some((Fault::BitFlip, payload)) => Some(FileFault::BitFlip(payload)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Public seam API — feature OFF: `#[inline(always)]` constants. The
// optimizer erases these entirely; the hot path carries no branch.
// ---------------------------------------------------------------------------

/// Injection is compiled out; installing a plan is an error.
#[cfg(not(feature = "injection"))]
pub fn configure(_seed: u64, _plan: &str) -> Result<(), String> {
    Err("tsg_faults built without the `injection` feature".to_string())
}

/// Injection is compiled out; nothing to disarm.
#[cfg(not(feature = "injection"))]
#[inline(always)]
pub fn disable() {}

/// Injection is compiled out; never active.
#[cfg(not(feature = "injection"))]
#[inline(always)]
pub fn is_active() -> bool {
    false
}

/// Injection is compiled out; nothing was ever injected.
#[cfg(not(feature = "injection"))]
#[inline(always)]
pub fn injected_total() -> u64 {
    0
}

/// Injection is compiled out; never faults.
#[cfg(not(feature = "injection"))]
#[inline(always)]
pub fn net_fault(_site: Site) -> Option<NetFault> {
    None
}

/// Injection is compiled out; never faults.
#[cfg(not(feature = "injection"))]
#[inline(always)]
pub fn file_fault(_site: Site) -> Option<FileFault> {
    None
}

// ---------------------------------------------------------------------------
// fsio — the injectable file seam
// ---------------------------------------------------------------------------

/// Filesystem wrappers the cache/snapshot machinery must use instead of
/// direct `std::fs` calls (enforced by the analyzer's `fault-seam` rule).
/// With injection disabled each wrapper inlines to the bare `std::fs` call.
pub mod fsio {
    use super::{file_fault, injected_err, FileFault, Site};
    use std::fs::File;
    use std::io::{self, Write as _};
    use std::path::Path;

    /// Passthrough `create_dir_all` (no fault site — directory creation is
    /// idempotent and not part of the torn-write threat model).
    pub fn create_dir_all(path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    /// Opens `path` for reading; `err` faults at `site` surface here.
    pub fn open(path: &Path, site: Site) -> io::Result<File> {
        if matches!(file_fault(site), Some(FileFault::Err)) {
            return Err(injected_err());
        }
        File::open(path)
    }

    /// Creates/truncates `path` for writing; `err` faults surface here.
    pub fn create(path: &Path, site: Site) -> io::Result<File> {
        if matches!(file_fault(site), Some(FileFault::Err)) {
            return Err(injected_err());
        }
        File::create(path)
    }

    /// Writes `bytes` to `file`. `torn` writes a seeded strict prefix and
    /// *reports success* (the corruption lands on disk, exactly like a
    /// crash mid-write after the rename); `bitflip` flips one seeded bit
    /// and reports success; `err` fails cleanly.
    pub fn write_all(file: &mut File, bytes: &[u8], site: Site) -> io::Result<()> {
        match file_fault(site) {
            Some(FileFault::Err) => Err(injected_err()),
            Some(FileFault::Torn(cut)) if !bytes.is_empty() => {
                let keep = (cut as usize) % bytes.len();
                match bytes.get(..keep) {
                    Some(prefix) => file.write_all(prefix),
                    None => file.write_all(bytes),
                }
            }
            Some(FileFault::BitFlip(pos)) if !bytes.is_empty() => {
                let mut copy = bytes.to_vec();
                let bit = (pos as usize) % (copy.len() * 8);
                if let Some(byte) = copy.get_mut(bit / 8) {
                    *byte ^= 1 << (bit % 8);
                }
                file.write_all(&copy)
            }
            _ => file.write_all(bytes),
        }
    }

    /// Durability barrier; `err` faults at `site` surface here.
    pub fn sync_all(file: &File, site: Site) -> io::Result<()> {
        if matches!(file_fault(site), Some(FileFault::Err)) {
            return Err(injected_err());
        }
        file.sync_all()
    }

    /// Atomic install (tmp → final); `err` faults at `site` surface here,
    /// simulating a crash *before* the rename (the final file is absent or
    /// stale, never half-written).
    pub fn rename(from: &Path, to: &Path, site: Site) -> io::Result<()> {
        if matches!(file_fault(site), Some(FileFault::Err)) {
            return Err(injected_err());
        }
        std::fs::rename(from, to)
    }

    /// Whole-file read; `err` faults at `site` surface here.
    pub fn read(path: &Path, site: Site) -> io::Result<Vec<u8>> {
        if matches!(file_fault(site), Some(FileFault::Err)) {
            return Err(injected_err());
        }
        std::fs::read(path)
    }

    /// Passthrough `remove_file` (cleanup of tmp litter; not injectable).
    pub fn remove_file(path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

#[cfg(all(test, feature = "injection"))]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::sync::Mutex;

    /// The plan is process-global; unit tests serialise on this.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn plan_parse_rejects_malformed_items() {
        let _g = locked();
        for bad in [
            "",
            "conn_read",
            "conn_read:eintr",
            "conn_read:eintr:2.0",
            "conn_read:eintr:x",
            "nope:eintr:0.5",
            "conn_read:nope:0.5",
            "conn_read:eintr:0.5:extra",
            // applicability: torn is a payload-write fault, reset is net-only
            "cache_open:torn:1",
            "cache_write:reset:1",
            "accept:short:1",
        ] {
            assert!(configure(1, bad).is_err(), "accepted `{bad}`");
        }
        disable();
    }

    #[test]
    fn same_seed_same_schedule() {
        let _g = locked();
        let sample = |seed: u64| -> Vec<Option<NetFault>> {
            configure(seed, "conn_read:eintr:0.3,conn_read:reset:0.2").unwrap();
            let drawn = (0..64).map(|_| net_fault(Site::ConnRead)).collect();
            disable();
            drawn
        };
        let a = sample(42);
        let b = sample(42);
        let c = sample(43);
        assert_eq!(a, b, "same seed must reproduce the schedule");
        assert_ne!(a, c, "different seed should differ");
        assert!(
            a.iter().any(|f| f.is_some()),
            "rate 0.5 over 64 draws must fire"
        );
        assert!(
            a.iter().any(|f| f.is_none()),
            "rate 0.5 over 64 draws must also pass"
        );
    }

    #[test]
    fn rate_edges_and_site_isolation() {
        let _g = locked();
        configure(7, "conn_write:reset:1,accept:err:0").unwrap();
        for _ in 0..8 {
            assert_eq!(net_fault(Site::ConnWrite), Some(NetFault::Reset));
            assert_eq!(net_fault(Site::Accept), None, "rate 0 never fires");
            assert_eq!(
                net_fault(Site::ConnRead),
                None,
                "unplanned site never fires"
            );
        }
        disable();
        assert_eq!(net_fault(Site::ConnWrite), None, "disable() disarms");
    }

    #[test]
    fn injected_counter_advances_only_on_hits() {
        let _g = locked();
        configure(9, "epoll_wait:eintr:1").unwrap();
        let before = injected_total();
        assert_eq!(net_fault(Site::EpollWait), Some(NetFault::Interrupt));
        assert_eq!(net_fault(Site::ConnRead), None);
        assert_eq!(injected_total() - before, 1);
        disable();
    }

    #[test]
    fn torn_write_installs_a_strict_prefix() {
        let _g = locked();
        let dir = std::env::temp_dir().join(format!("tsg_faults_torn_{}", std::process::id()));
        fsio::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let payload: Vec<u8> = (0..255u8).collect();

        configure(11, "snap_write:torn:1").unwrap();
        let mut f = fsio::create(&path, Site::SnapOpen).unwrap();
        fsio::write_all(&mut f, &payload, Site::SnapWrite).unwrap();
        drop(f);
        disable();

        let mut written = Vec::new();
        std::fs::File::open(&path)
            .unwrap()
            .read_to_end(&mut written)
            .unwrap();
        assert!(written.len() < payload.len(), "torn write must truncate");
        assert_eq!(written, payload[..written.len()], "prefix must be intact");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_write_changes_exactly_one_bit() {
        let _g = locked();
        let dir = std::env::temp_dir().join(format!("tsg_faults_flip_{}", std::process::id()));
        fsio::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let payload = vec![0u8; 64];

        configure(13, "snap_write:bitflip:1").unwrap();
        let mut f = fsio::create(&path, Site::SnapOpen).unwrap();
        fsio::write_all(&mut f, &payload, Site::SnapWrite).unwrap();
        drop(f);
        disable();

        let written = std::fs::read(&path).unwrap();
        assert_eq!(written.len(), payload.len());
        let flipped: u32 = written.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit must differ");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn err_faults_fail_cleanly_at_every_file_site() {
        let _g = locked();
        let dir = std::env::temp_dir().join(format!("tsg_faults_err_{}", std::process::id()));
        fsio::create_dir_all(&dir).unwrap();
        let path = dir.join("x.bin");
        std::fs::write(&path, b"hello").unwrap();

        configure(17, "cache_open:err:1,cache_rename:err:1,cache_sync:err:1").unwrap();
        assert!(fsio::open(&path, Site::CacheOpen).is_err());
        assert!(fsio::rename(&path, &dir.join("y.bin"), Site::CacheRename).is_err());
        let f = std::fs::File::open(&path).unwrap();
        assert!(fsio::sync_all(&f, Site::CacheSync).is_err());
        disable();

        assert!(
            fsio::open(&path, Site::CacheOpen).is_ok(),
            "disarmed seam passes through"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
