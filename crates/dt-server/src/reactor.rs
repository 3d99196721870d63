//! The event-loop ingest plane: a small pool of reactor threads, each
//! multiplexing many nonblocking connections over epoll (DESIGN.md
//! §14).
//!
//! The plane splits in two so its logic is testable without sockets:
//!
//! * [`ReactorCore`] — the deterministic heart. Generic over a byte
//!   transport ([`ConnIo`]) and an interest registry ([`Interests`]),
//!   it owns every connection's [`FrameAssembler`] + [`IngestSession`]
//!   pair, applies readiness-layer faults (`read_chop` /
//!   `read_disconnect`), enforces the per-wakeup read-burst cap, and
//!   runs write-side backpressure (pending replies re-arm write
//!   interest; a drained buffer restores read-only interest). Unit
//!   tests drive it with scripted fake sockets and a logging interest
//!   registry — no epoll, no wall clock.
//! * [`Reactor`] (Linux only) — the thread around the core: an
//!   edge-triggered epoll loop with an eventfd wake channel the
//!   acceptor uses to hand over fresh connections.
//!
//! Invariants the tests pin:
//!
//! * **Teardown ordering**: pending output is flushed (best effort),
//!   then the token leaves the interest set, and only then does the
//!   socket drop — a readiness source never holds a token for a dead
//!   fd.
//! * **Burst fairness**: a connection that keeps producing bytes
//!   yields after [`READ_BURST_CAP`] and rejoins via the carryover
//!   ready list (edge-triggered epoll would otherwise never re-fire
//!   for bytes already buffered).
//! * **Idle parity**: holdbacks flush after [`IDLE_TICKS`] quiet
//!   ticks, mirroring the threaded plane's 50 ms read-timeout flush —
//!   counted in ticks, not wall time, so a frozen `VirtualClock`
//!   changes nothing.

use crate::frame::{FrameAssembler, FrameTooLong};
use crate::ingest::{IngestSession, LineVerdict};
use crate::obs::{ReactorObs, FAULT_READ_CHOP, FAULT_READ_DISCONNECT};
use crate::server::ServerHandle;
use std::collections::HashMap;
use std::io;

/// One nonblocking read's buffer size (matches the threaded plane).
const READ_CHUNK: usize = 16 * 1024;
/// Per-connection read-burst cap per wakeup: a firehose peer yields
/// back to the loop after this many bytes so it cannot starve its
/// reactor's other connections; it keeps its turn via the carryover
/// ready list.
const READ_BURST_CAP: usize = 256 * 1024;
/// Reactor tick — the `epoll_wait` timeout, milliseconds.
#[cfg(target_os = "linux")]
const TICK_MS: i32 = 10;
/// Quiet ticks before a connection's fault-plan holdbacks flush
/// (≈ the threaded plane's 50 ms read timeout at 10 ms ticks).
const IDLE_TICKS: u32 = 5;

/// Nonblocking byte transport (a `TcpStream` in production; scripted
/// fakes in the unit tests).
pub(crate) trait ConnIo {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
}

impl ConnIo for std::net::TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(self, buf)
    }
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(self, buf)
    }
}

/// The readiness registry the core re-arms interest against.
pub(crate) trait Interests {
    /// Re-arm `token` for read (always) plus write when `want_write`.
    fn rearm(&mut self, token: u64, want_write: bool);
    /// Remove `token` from the interest set (called strictly before
    /// the token's socket drops).
    fn deregister(&mut self, token: u64);
}

/// What a readable sweep left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// The socket is drained (or the connection closed).
    Done,
    /// The burst cap fired with bytes likely still pending: the caller
    /// must re-run this token without waiting for a new edge.
    Yielded,
}

/// What one read sweep decided (internal to the core).
enum Step {
    /// No more bytes right now, or the session closed cleanly: flush
    /// output and settle interest.
    Settle,
    /// Burst cap hit mid-stream.
    Yield,
    /// Socket error or injected readiness disconnect: abrupt teardown.
    Torn,
}

/// Whether the out-buffer flush finished.
enum Flush {
    Drained,
    Blocked,
    Error,
}

/// One multiplexed connection: its transport, frame assembler, shared
/// ingest state machine, and pending output.
struct Conn<S> {
    sock: S,
    asm: FrameAssembler,
    session: IngestSession,
    /// Server-wide accept order — the readiness fault plan's key.
    accept_idx: u64,
    /// Read *attempts* so far (the fault plan's read index; a chopped
    /// or torn read is scheduled before the `read` call it afflicts).
    reads: u64,
    out: Vec<u8>,
    out_pos: usize,
    want_write: bool,
    closing: bool,
    idle_ticks: u32,
}

/// The deterministic reactor state machine: every connection owned by
/// one reactor thread, keyed by its readiness token.
pub(crate) struct ReactorCore<S> {
    handle: ServerHandle,
    obs: ReactorObs,
    conns: HashMap<u64, Conn<S>>,
    buf: Box<[u8]>,
}

impl<S: ConnIo> ReactorCore<S> {
    pub(crate) fn new(handle: ServerHandle, obs: ReactorObs) -> ReactorCore<S> {
        ReactorCore {
            handle,
            obs,
            conns: HashMap::new(),
            buf: vec![0u8; READ_CHUNK].into_boxed_slice(),
        }
    }

    /// Adopt a fresh connection under `token`.
    pub(crate) fn add(&mut self, token: u64, accept_idx: u64, sock: S) {
        let session = IngestSession::new(self.handle.fault_plan().clone());
        self.conns.insert(
            token,
            Conn {
                sock,
                asm: FrameAssembler::new(),
                session,
                accept_idx,
                reads: 0,
                out: Vec::new(),
                out_pos: 0,
                want_write: false,
                closing: false,
                idle_ticks: 0,
            },
        );
        self.obs.conns.add(1);
    }

    /// Connections currently owned (asserted by the unit tests; the
    /// live gauge is `dt_server_reactor_conns`).
    #[cfg(test)]
    pub(crate) fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Drive `token` through short nonblocking reads until the socket
    /// runs dry, the session closes it, or the burst cap fires.
    pub(crate) fn on_readable<I: Interests>(
        &mut self,
        token: u64,
        interests: &mut I,
    ) -> ReadOutcome {
        let step = {
            let ReactorCore {
                handle,
                obs,
                conns,
                buf,
            } = self;
            let Some(conn) = conns.get_mut(&token) else {
                return ReadOutcome::Done;
            };
            conn.idle_ticks = 0;
            pump(handle, obs, conn, buf)
        };
        match step {
            Step::Torn => {
                self.teardown(token, interests, true);
                ReadOutcome::Done
            }
            Step::Yield => {
                self.settle(token, interests);
                ReadOutcome::Yielded
            }
            Step::Settle => {
                self.settle(token, interests);
                ReadOutcome::Done
            }
        }
    }

    /// The kernel says `token` is writable again: drain pending output
    /// and restore read-only interest once it empties.
    pub(crate) fn on_writable<I: Interests>(&mut self, token: u64, interests: &mut I) {
        self.settle(token, interests);
    }

    /// One reactor tick: age every connection's idle counter; those
    /// quiet for [`IDLE_TICKS`] flush their fault-plan holdbacks
    /// (delayed frames must not outlive the lull that would seal
    /// their window — same rule as the threaded plane's read timeout).
    pub(crate) fn on_tick<I: Interests>(&mut self, interests: &mut I) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            {
                let ReactorCore { handle, conns, .. } = self;
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                if conn.closing {
                    continue;
                }
                conn.idle_ticks += 1;
                if conn.idle_ticks < IDLE_TICKS {
                    continue;
                }
                conn.idle_ticks = 0;
                if conn.session.on_idle(handle, &mut conn.out) == LineVerdict::Close {
                    conn.closing = true;
                }
            }
            self.settle(token, interests);
        }
    }

    /// Graceful-drain sweep: flush every connection's holdbacks and
    /// close it *at this wakeup* — shutdown does not wait out idle
    /// timers or blocked writes beyond one best-effort flush.
    pub(crate) fn drain_all<I: Interests>(&mut self, interests: &mut I) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            {
                let ReactorCore { handle, conns, .. } = self;
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                let _ = conn.session.on_idle(handle, &mut conn.out);
            }
            self.teardown(token, interests, false);
        }
    }

    /// Flush pending output and settle `token`'s fate: re-arm write
    /// interest while blocked, restore read-only interest on drain,
    /// tear down once a closing connection has drained.
    fn settle<I: Interests>(&mut self, token: u64, interests: &mut I) {
        enum After {
            Keep,
            RearmRead,
            RearmWrite,
            Close,
            Torn,
        }
        let after = match self.conns.get_mut(&token) {
            None => return,
            Some(conn) => match flush_out(conn) {
                Flush::Drained => {
                    if conn.closing {
                        After::Close
                    } else if conn.want_write {
                        conn.want_write = false;
                        After::RearmRead
                    } else {
                        After::Keep
                    }
                }
                Flush::Blocked => {
                    if conn.want_write {
                        After::Keep
                    } else {
                        conn.want_write = true;
                        After::RearmWrite
                    }
                }
                Flush::Error => After::Torn,
            },
        };
        match after {
            After::Keep => {}
            After::RearmRead => interests.rearm(token, false),
            After::RearmWrite => interests.rearm(token, true),
            After::Close => self.teardown(token, interests, false),
            After::Torn => self.teardown(token, interests, true),
        }
    }

    /// Tear `token` down. On the abrupt path the session first flushes
    /// holdbacks into the engine (the torn trailing fragment stays
    /// uncounted — see [`IngestSession::on_error`]). Ordering is
    /// pinned by the unit tests: flush output (best effort), then
    /// deregister interest, then drop the socket.
    fn teardown<I: Interests>(&mut self, token: u64, interests: &mut I, abrupt: bool) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if abrupt {
            conn.session.on_error(&self.handle, &mut conn.out);
        }
        let _ = flush_out(&mut conn);
        interests.deregister(token);
        self.obs.conns.sub(1);
        drop(conn);
    }
}

/// The read sweep: nonblocking reads (fault-chopped when scheduled)
/// feeding the frame assembler, each completed line through the
/// shared session, until dry / close / burst cap / teardown.
fn pump<S: ConnIo>(
    handle: &ServerHandle,
    obs: &ReactorObs,
    conn: &mut Conn<S>,
    buf: &mut [u8],
) -> Step {
    let fault = handle.fault_plan();
    let mut burst = 0usize;
    loop {
        let read_idx = conn.reads;
        conn.reads += 1;
        let mut cap = buf.len();
        if !fault.is_disabled() {
            if fault.read_disconnect(conn.accept_idx, read_idx) {
                handle.obs().faults_injected[FAULT_READ_DISCONNECT].inc();
                return Step::Torn;
            }
            if let Some(chop) = fault.read_chop(conn.accept_idx, read_idx) {
                handle.obs().faults_injected[FAULT_READ_CHOP].inc();
                cap = chop.min(cap);
            }
        }
        match conn.sock.read(&mut buf[..cap]) {
            Ok(0) => {
                conn.session
                    .on_eof(handle, conn.asm.take_partial(), &mut conn.out);
                conn.closing = true;
                return Step::Settle;
            }
            Ok(n) => {
                obs.read_burst.observe(n as u64);
                burst += n;
                conn.asm.push(&buf[..n]);
                while let Some(frame) = conn.asm.next_frame() {
                    let verdict = match frame {
                        Ok(line) => conn.session.on_line(handle, &line, &mut conn.out),
                        Err(FrameTooLong) => conn.session.on_too_long(handle, &mut conn.out),
                    };
                    if verdict == LineVerdict::Close {
                        conn.closing = true;
                        return Step::Settle;
                    }
                }
                if burst >= READ_BURST_CAP {
                    return Step::Yield;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Settle,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Step::Torn,
        }
    }
}

/// Write as much pending output as the socket accepts.
fn flush_out<S: ConnIo>(conn: &mut Conn<S>) -> Flush {
    while conn.out_pos < conn.out.len() {
        match conn.sock.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Flush::Error,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flush::Blocked,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Flush::Error,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    Flush::Drained
}

#[cfg(target_os = "linux")]
pub(crate) use real::Reactor;

/// The real epoll reactor thread (Linux; other targets fall back to
/// the threaded plane in `Server::start`).
#[cfg(target_os = "linux")]
mod real {
    use super::{Interests, ReactorCore, ReadOutcome, TICK_MS};
    use crate::obs::ReactorObs;
    use crate::server::ServerHandle;
    use crate::sys::{
        self, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT,
        EPOLLRDHUP,
    };
    use dt_types::{DtError, DtResult};
    use std::collections::HashMap;
    use std::net::TcpStream;
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::sync::{Arc, Mutex};
    use std::thread::JoinHandle;

    /// The wake eventfd's token; connection tokens start at 1.
    const WAKE: u64 = 0;
    /// Connection interest: edge-triggered read plus peer-close.
    const CONN_BASE: u32 = EPOLLIN | EPOLLRDHUP | EPOLLET;

    struct Shared {
        /// Connections the acceptor has handed over, waiting to be
        /// adopted into the epoll set: `(accept_idx, socket)`.
        inbox: Mutex<Vec<(u64, TcpStream)>>,
        wake: EventFd,
    }

    /// One reactor thread of the event-loop ingest plane. The
    /// acceptor round-robins fresh connections across the pool via
    /// [`Reactor::register`]; shutdown sets the server stop flag and
    /// [`Reactor::wake`]s each thread, which drains its connections
    /// and exits.
    pub(crate) struct Reactor {
        shared: Arc<Shared>,
        thread: Mutex<Option<JoinHandle<()>>>,
    }

    impl Reactor {
        pub(crate) fn spawn(
            idx: usize,
            handle: ServerHandle,
            obs: ReactorObs,
        ) -> DtResult<Reactor> {
            let shared = Arc::new(Shared {
                inbox: Mutex::new(Vec::new()),
                wake: EventFd::new().map_err(|e| DtError::engine(format!("eventfd: {e}")))?,
            });
            let run_shared = Arc::clone(&shared);
            let thread = std::thread::Builder::new()
                .name(format!("dt-reactor-{idx}"))
                .spawn(move || run_reactor(run_shared, handle, obs))
                .map_err(|e| DtError::engine(format!("spawn reactor: {e}")))?;
            Ok(Reactor {
                shared,
                thread: Mutex::new(Some(thread)),
            })
        }

        /// Hand a fresh connection to this reactor (acceptor side).
        pub(crate) fn register(&self, accept_idx: u64, sock: TcpStream) {
            self.shared
                .inbox
                .lock()
                .expect("reactor inbox")
                .push((accept_idx, sock));
            self.shared.wake.signal();
        }

        /// Force a wakeup (shutdown path — the loop re-checks the
        /// server stop flag on every wakeup).
        pub(crate) fn wake(&self) {
            self.shared.wake.signal();
        }

        /// Join the reactor thread (after the stop flag is set and
        /// [`Reactor::wake`] called).
        pub(crate) fn join(&self) {
            if let Some(t) = self.thread.lock().expect("reactor thread").take() {
                let _ = t.join();
            }
        }
    }

    /// [`Interests`] over the thread's real epoll set.
    struct EpollInterests<'a> {
        epoll: &'a Epoll,
        fds: HashMap<u64, RawFd>,
    }

    impl Interests for EpollInterests<'_> {
        fn rearm(&mut self, token: u64, want_write: bool) {
            if let Some(&fd) = self.fds.get(&token) {
                let mask = if want_write {
                    CONN_BASE | EPOLLOUT
                } else {
                    CONN_BASE
                };
                let _ = self.epoll.modify(fd, token, mask);
            }
        }
        fn deregister(&mut self, token: u64) {
            if let Some(fd) = self.fds.remove(&token) {
                let _ = self.epoll.delete(fd);
            }
        }
    }

    fn run_reactor(shared: Arc<Shared>, handle: ServerHandle, obs: ReactorObs) {
        let Ok(epoll) = Epoll::new() else { return };
        if epoll.add(shared.wake.raw(), WAKE, EPOLLIN).is_err() {
            return;
        }
        let mut interests = EpollInterests {
            epoll: &epoll,
            fds: HashMap::new(),
        };
        let wakeups = obs.wakeups.clone();
        let mut core: ReactorCore<TcpStream> = ReactorCore::new(handle.clone(), obs);
        let mut events = [EpollEvent::zeroed(); 128];
        let mut next_token: u64 = 1;
        // Tokens that must re-run without a fresh edge: burst-capped
        // connections keeping their turn, and adoptees whose bytes
        // may have landed before their epoll registration.
        let mut carry: Vec<u64> = Vec::new();
        let mut requeue: Vec<u64> = Vec::new();
        loop {
            let timeout = if carry.is_empty() { TICK_MS } else { 0 };
            let n = match epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => {
                    // Should be unreachable (EINTR is retried inside
                    // `wait`); don't spin hot if it somehow isn't.
                    std::thread::sleep(std::time::Duration::from_millis(TICK_MS as u64));
                    0
                }
            };
            wakeups.inc();
            for ev in events.iter().take(n) {
                let (mask, token) = (ev.events, ev.data);
                if token == WAKE {
                    shared.wake.drain();
                    continue;
                }
                if mask & EPOLLOUT != 0 {
                    core.on_writable(token, &mut interests);
                }
                if mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0
                    && core.on_readable(token, &mut interests) == ReadOutcome::Yielded
                {
                    requeue.push(token);
                }
            }
            // Adopt newly accepted connections.
            let fresh: Vec<(u64, TcpStream)> = shared
                .inbox
                .lock()
                .expect("reactor inbox")
                .drain(..)
                .collect();
            for (accept_idx, sock) in fresh {
                let fd = sock.as_raw_fd();
                if sys::set_nonblocking(fd).is_err() {
                    continue;
                }
                let token = next_token;
                next_token += 1;
                if epoll.add(fd, token, CONN_BASE).is_ok() {
                    interests.fds.insert(token, fd);
                    core.add(token, accept_idx, sock);
                    requeue.push(token);
                }
            }
            for token in carry.drain(..) {
                if core.on_readable(token, &mut interests) == ReadOutcome::Yielded {
                    requeue.push(token);
                }
            }
            std::mem::swap(&mut carry, &mut requeue);
            core.on_tick(&mut interests);
            if handle.stopping() {
                core.drain_all(&mut interests);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::fault::FaultPlan;
    use crate::server::Server;
    use dt_query::Catalog;
    use dt_types::{DataType, Schema, VirtualClock};
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    const FRAME: &[u8] = b"{\"stream\":\"R\",\"row\":[1],\"ts\":1000}\n";

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
        c
    }

    /// A socketless server under a frozen `VirtualClock` — the core is
    /// driven entirely by hand, so nothing in these tests depends on
    /// wall time or real readiness.
    fn start_server(fault: FaultPlan, budget: u64) -> Server {
        let mut cfg = ServerConfig::new("SELECT a, COUNT(*) FROM R GROUP BY a", catalog());
        cfg.fault = fault;
        cfg.conn_error_budget = budget;
        Server::start(&cfg, None, Arc::new(VirtualClock::new())).unwrap()
    }

    type Log = Rc<RefCell<Vec<String>>>;

    /// A scripted fake socket. Reads pop from a queue (empty queue =
    /// `WouldBlock`, i.e. a quiet peer); writes follow a plan of
    /// accepted byte counts (empty plan = accept everything). `Drop`
    /// logs the close, so teardown ordering is observable.
    struct FakeSock {
        name: &'static str,
        reads: VecDeque<io::Result<Vec<u8>>>,
        writes: VecDeque<io::Result<usize>>,
        written: Rc<RefCell<Vec<u8>>>,
        log: Log,
    }

    impl FakeSock {
        fn new(name: &'static str, log: &Log) -> FakeSock {
            FakeSock {
                name,
                reads: VecDeque::new(),
                writes: VecDeque::new(),
                written: Rc::new(RefCell::new(Vec::new())),
                log: Rc::clone(log),
            }
        }
        fn push_read(&mut self, bytes: &[u8]) {
            self.reads.push_back(Ok(bytes.to_vec()));
        }
        fn push_eof(&mut self) {
            self.reads.push_back(Ok(Vec::new()));
        }
        fn push_write(&mut self, r: io::Result<usize>) {
            self.writes.push_back(r);
        }
        fn sink(&self) -> Rc<RefCell<Vec<u8>>> {
            Rc::clone(&self.written)
        }
    }

    impl ConnIo for FakeSock {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.reads.pop_front() {
                Some(Ok(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    // A chopped read leaves the rest "in the kernel
                    // buffer" for the next call.
                    if n < bytes.len() {
                        self.reads.push_front(Ok(bytes[n..].to_vec()));
                    }
                    Ok(n)
                }
                Some(Err(e)) => Err(e),
                None => Err(io::Error::new(io::ErrorKind::WouldBlock, "quiet")),
            }
        }
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.writes.pop_front() {
                Some(Ok(cap)) => {
                    let n = cap.min(buf.len());
                    self.written.borrow_mut().extend_from_slice(&buf[..n]);
                    Ok(n)
                }
                Some(Err(e)) => Err(e),
                None => {
                    self.written.borrow_mut().extend_from_slice(buf);
                    Ok(buf.len())
                }
            }
        }
    }

    impl Drop for FakeSock {
        fn drop(&mut self) {
            self.log.borrow_mut().push(format!("close {}", self.name));
        }
    }

    /// A fake readiness source that records every interest change.
    struct FakeInterests {
        log: Log,
    }

    impl Interests for FakeInterests {
        fn rearm(&mut self, token: u64, want_write: bool) {
            let kind = if want_write { "rw" } else { "r" };
            self.log.borrow_mut().push(format!("rearm {token} {kind}"));
        }
        fn deregister(&mut self, token: u64) {
            self.log.borrow_mut().push(format!("deregister {token}"));
        }
    }

    fn rig(server: &Server, log: &Log) -> (ReactorCore<FakeSock>, FakeInterests) {
        (
            ReactorCore::new(server.handle(), ReactorObs::default()),
            FakeInterests {
                log: Rc::clone(log),
            },
        )
    }

    #[test]
    fn spurious_wakeup_is_a_no_op() {
        let server = start_server(FaultPlan::disabled(), 32);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (mut core, mut ints) = rig(&server, &log);
        core.add(1, 0, FakeSock::new("c1", &log));
        // The readiness source claims readable but the socket has
        // nothing: the sweep must not rearm, deregister, or close.
        assert_eq!(core.on_readable(1, &mut ints), ReadOutcome::Done);
        assert_eq!(core.conn_count(), 1);
        assert!(log.borrow().is_empty(), "log: {:?}", log.borrow());
        server.shutdown().unwrap();
    }

    #[test]
    fn write_backpressure_rearms_then_drains() {
        let server = start_server(FaultPlan::disabled(), 32);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (mut core, mut ints) = rig(&server, &log);
        let mut sock = FakeSock::new("c1", &log);
        sock.push_read(b"{\"cmd\":\"list\"}\n");
        sock.push_write(Ok(2)); // short write...
        sock.push_write(Err(io::Error::new(io::ErrorKind::WouldBlock, "full")));
        let sink = sock.sink();
        core.add(1, 0, sock);
        // The list reply doesn't fit: write interest joins the mask.
        assert_eq!(core.on_readable(1, &mut ints), ReadOutcome::Done);
        assert_eq!(log.borrow().last().unwrap(), "rearm 1 rw");
        // Writable again: the remainder drains, read-only restored.
        core.on_writable(1, &mut ints);
        assert_eq!(log.borrow().last().unwrap(), "rearm 1 r");
        assert_eq!(core.conn_count(), 1);
        let written = String::from_utf8(sink.borrow().clone()).unwrap();
        assert!(written.starts_with("{\"queries\":"), "reply: {written}");
        assert!(written.ends_with('\n'));
        server.shutdown().unwrap();
    }

    #[test]
    fn budget_teardown_orders_farewell_deregister_close() {
        let server = start_server(FaultPlan::disabled(), 2);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (mut core, mut ints) = rig(&server, &log);
        let mut sock = FakeSock::new("c1", &log);
        sock.push_read(b"not json\nstill not json\n");
        let sink = sock.sink();
        core.add(1, 0, sock);
        assert_eq!(core.on_readable(1, &mut ints), ReadOutcome::Done);
        assert_eq!(core.conn_count(), 0);
        let written = String::from_utf8(sink.borrow().clone()).unwrap();
        assert!(
            written.contains("error budget exhausted"),
            "farewell flushed before the socket dropped: {written}"
        );
        // Pinned teardown ordering: interest leaves the registry
        // strictly before the socket closes.
        assert_eq!(*log.borrow(), vec!["deregister 1", "close c1"]);
        assert_eq!(server.stats().parse_errors.load(Ordering::SeqCst), 2);
        server.shutdown().unwrap();
    }

    #[test]
    fn eof_counts_the_torn_trailing_frame() {
        let server = start_server(FaultPlan::disabled(), 32);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (mut core, mut ints) = rig(&server, &log);
        let mut sock = FakeSock::new("c1", &log);
        let mut bytes = FRAME.to_vec();
        bytes.extend_from_slice(b"{\"stream\":\"R\","); // torn mid-frame
        sock.push_read(&bytes);
        sock.push_eof();
        core.add(1, 0, sock);
        assert_eq!(core.on_readable(1, &mut ints), ReadOutcome::Done);
        // Clean EOF: the whole frame reached the engine; the torn
        // fragment counts against parse_errors like any bad line.
        assert_eq!(core.conn_count(), 0);
        let stats = server.stats();
        assert_eq!(stats.stream(0).offered.load(Ordering::SeqCst), 1);
        assert_eq!(stats.parse_errors.load(Ordering::SeqCst), 1);
        assert_eq!(*log.borrow(), vec!["deregister 1", "close c1"]);
        server.shutdown().unwrap();
    }

    #[test]
    fn injected_read_disconnect_drops_the_fragment_uncounted() {
        // Accept index 7, read attempt 1 tears: read 0 delivers one
        // whole frame plus a fragment, then the wire "breaks".
        let plan = FaultPlan::disabled().inject_read_disconnect(7, 1);
        let server = start_server(plan, 32);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (mut core, mut ints) = rig(&server, &log);
        let mut sock = FakeSock::new("c1", &log);
        let mut bytes = FRAME.to_vec();
        bytes.extend_from_slice(b"{\"stream\":\"R\",");
        sock.push_read(&bytes);
        core.add(1, 7, sock);
        assert_eq!(core.on_readable(1, &mut ints), ReadOutcome::Done);
        // Abrupt teardown: the completed frame was processed, but the
        // fragment's bytes never finished arriving — unlike the clean
        // EOF case it does NOT touch the error budget.
        assert_eq!(core.conn_count(), 0);
        let stats = server.stats();
        assert_eq!(stats.stream(0).offered.load(Ordering::SeqCst), 1);
        assert_eq!(stats.parse_errors.load(Ordering::SeqCst), 0);
        assert_eq!(*log.borrow(), vec!["deregister 1", "close c1"]);
        server.shutdown().unwrap();
    }

    #[test]
    fn injected_read_chop_shortens_reads_losslessly() {
        // Every read on accept index 0 is chopped to 1..=7 bytes; the
        // frame still reassembles bit-identically.
        let plan = FaultPlan::disabled().with_seed(3);
        let plan = {
            let mut p = plan;
            p.read_chop_rate = 1.0;
            p
        };
        let server = start_server(plan, 32);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (mut core, mut ints) = rig(&server, &log);
        let mut sock = FakeSock::new("c1", &log);
        sock.push_read(FRAME);
        core.add(1, 0, sock);
        assert_eq!(core.on_readable(1, &mut ints), ReadOutcome::Done);
        assert_eq!(core.conn_count(), 1);
        let stats = server.stats();
        assert_eq!(stats.stream(0).offered.load(Ordering::SeqCst), 1);
        assert_eq!(stats.parse_errors.load(Ordering::SeqCst), 0);
        server.shutdown().unwrap();
    }

    #[test]
    fn idle_ticks_flush_holdbacks_under_a_frozen_clock() {
        // Delay rate 1.0: the single data line is held back, so
        // nothing reaches the engine until the idle-tick flush.
        let plan = {
            let mut p = FaultPlan::disabled().with_seed(11);
            p.delay_rate = 1.0;
            p
        };
        let server = start_server(plan, 32);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (mut core, mut ints) = rig(&server, &log);
        let mut sock = FakeSock::new("c1", &log);
        sock.push_read(FRAME);
        core.add(1, 0, sock);
        assert_eq!(core.on_readable(1, &mut ints), ReadOutcome::Done);
        let offered = || server.stats().stream(0).offered.load(Ordering::SeqCst);
        assert_eq!(offered(), 0, "line held back by the fault plan");
        // IDLE_TICKS quiet ticks later the holdback flushes; the
        // connection itself stays open. VirtualClock never moves —
        // idleness is tick-counted, not wall-timed.
        for _ in 0..IDLE_TICKS {
            core.on_tick(&mut ints);
        }
        assert_eq!(offered(), 1);
        assert_eq!(core.conn_count(), 1);
        server.shutdown().unwrap();
    }

    #[test]
    fn reads_reset_the_idle_counter() {
        let plan = {
            let mut p = FaultPlan::disabled().with_seed(11);
            p.delay_rate = 1.0;
            p
        };
        let server = start_server(plan, 32);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (mut core, mut ints) = rig(&server, &log);
        let mut sock = FakeSock::new("c1", &log);
        sock.push_read(FRAME);
        core.add(1, 0, sock);
        core.on_readable(1, &mut ints);
        let offered = || server.stats().stream(0).offered.load(Ordering::SeqCst);
        // One tick short of the flush...
        for _ in 0..IDLE_TICKS - 1 {
            core.on_tick(&mut ints);
        }
        assert_eq!(offered(), 0);
        // ...then activity (even a spurious wakeup) resets the timer.
        core.on_readable(1, &mut ints);
        for _ in 0..IDLE_TICKS - 1 {
            core.on_tick(&mut ints);
        }
        assert_eq!(offered(), 0, "idle counter restarted after activity");
        core.on_tick(&mut ints);
        assert_eq!(offered(), 1);
        server.shutdown().unwrap();
    }

    #[test]
    fn drain_all_closes_every_connection_in_one_sweep() {
        let server = start_server(FaultPlan::disabled(), 32);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (mut core, mut ints) = rig(&server, &log);
        core.add(1, 0, FakeSock::new("c1", &log));
        core.add(2, 1, FakeSock::new("c2", &log));
        core.drain_all(&mut ints);
        assert_eq!(core.conn_count(), 0);
        let log = log.borrow();
        assert!(log.contains(&"close c1".to_string()), "log: {log:?}");
        assert!(log.contains(&"close c2".to_string()), "log: {log:?}");
        server.shutdown().unwrap();
    }

    #[test]
    fn burst_cap_yields_and_resumes_via_carry() {
        let server = start_server(FaultPlan::disabled(), 32);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (mut core, mut ints) = rig(&server, &log);
        let mut sock = FakeSock::new("c1", &log);
        // More than READ_BURST_CAP bytes of valid frames, in
        // READ_CHUNK-sized scripted reads.
        let frames_per_chunk = READ_CHUNK / FRAME.len();
        let chunk: Vec<u8> = FRAME.repeat(frames_per_chunk);
        let chunks = READ_BURST_CAP / chunk.len() + 2;
        for _ in 0..chunks {
            sock.push_read(&chunk);
        }
        core.add(1, 0, sock);
        // First sweep: the cap fires mid-stream.
        assert_eq!(core.on_readable(1, &mut ints), ReadOutcome::Yielded);
        let after_first = server.stats().stream(0).offered.load(Ordering::SeqCst);
        assert!(after_first < (frames_per_chunk * chunks) as u64);
        // The carry re-run finishes the backlog.
        assert_eq!(core.on_readable(1, &mut ints), ReadOutcome::Done);
        assert_eq!(
            server.stats().stream(0).offered.load(Ordering::SeqCst),
            (frames_per_chunk * chunks) as u64
        );
        assert_eq!(core.conn_count(), 1);
        server.shutdown().unwrap();
    }
}
