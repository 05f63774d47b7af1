//! Applications: ttcp sender/receiver (user processes with copy-semantics
//! sockets) and an in-kernel file server with share semantics (§5).

use crate::world::{App, Step, SysCtx};
use bytes::Bytes;
use outboard_host::TaskId;
use outboard_mbuf::Chain;
use outboard_sim::splitmix64_at;
use outboard_stack::{Proto, ReadResult, SockAddr, SockId, StackError, WriteResult};

/// Per-write user-mode loop overhead of ttcp (µs) — the tiny amount of
/// user time the paper's ttcp consumes per iteration.
const TTCP_LOOP_US: f64 = 3.0;

/// Key of the ttcp payload stream.
const TTCP_KEY: u64 = 0x7474_6370_5061_7944;

/// Key of the stream that draws each file-server block's own key.
const FILE_KEY: u64 = 0x6669_6c65_426c_6f63;

/// Word `w` of the ttcp payload: stream bytes `8w..8w + 8`, little-endian.
///
/// A keyed SplitMix64 stream over the word index, so every 8-byte-aligned
/// word of a transfer differs from every other one. A page delivered at
/// the wrong stream offset therefore fails the receiver's check, which a
/// short-period byte pattern would let through.
fn ttcp_word(w: u64) -> u64 {
    splitmix64_at(TTCP_KEY, w)
}

/// The byte every ttcp transfer places at stream offset `i`: the
/// byte-level reference for the word stream the sender writes.
pub fn ttcp_pattern(i: usize) -> u8 {
    stream_byte(ttcp_word, i)
}

/// Byte `i` of the little-endian stream of words `word`.
fn stream_byte(word: impl Fn(u64) -> u64, i: usize) -> u8 {
    word((i / 8) as u64).to_le_bytes()[i % 8]
}

/// Split a buffer holding stream bytes `off..` into its unaligned head
/// length and the index of the first whole word after it.
fn word_split(off: usize, len: usize) -> (usize, u64) {
    let head = ((8 - off % 8) % 8).min(len);
    (head, ((off + head) / 8) as u64)
}

/// Write stream bytes `off..off + buf.len()` of `word` into `buf`, a word
/// at a time.
fn fill_stream(word: impl Fn(u64) -> u64, off: usize, buf: &mut [u8]) {
    let (head, w0) = word_split(off, buf.len());
    let (head_buf, body) = buf.split_at_mut(head);
    for (k, b) in head_buf.iter_mut().enumerate() {
        *b = stream_byte(&word, off + k);
    }
    let mut words = body.chunks_exact_mut(8);
    let mut w = w0;
    for chunk in &mut words {
        chunk.copy_from_slice(&word(w).to_le_bytes());
        w += 1;
    }
    for (k, b) in words.into_remainder().iter_mut().enumerate() {
        *b = stream_byte(&word, 8 * w as usize + k);
    }
}

/// Count the bytes of `buf` that differ from stream bytes
/// `off..off + buf.len()` of `word`, comparing a word at a time.
fn stream_mismatches(word: impl Fn(u64) -> u64, off: usize, buf: &[u8]) -> u64 {
    let (head, w0) = word_split(off, buf.len());
    let (head_buf, body) = buf.split_at(head);
    let mut bad = 0u64;
    for (k, &b) in head_buf.iter().enumerate() {
        bad += u64::from(b != stream_byte(&word, off + k));
    }
    let words = body.chunks_exact(8);
    let tail = words.remainder();
    let mut w = w0;
    for chunk in words {
        let got = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        let diff = got ^ word(w);
        if diff != 0 {
            bad += diff.to_le_bytes().iter().filter(|&&d| d != 0).count() as u64;
        }
        w += 1;
    }
    for (k, &b) in tail.iter().enumerate() {
        bad += u64::from(b != stream_byte(&word, 8 * w as usize + k));
    }
    bad
}

/// Sender states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxState {
    Start,
    Connecting,
    Writing,
    Closing,
    Done,
}

/// A ttcp transmitter: connect, then `write(write_size)` until
/// `total_bytes` have been accepted, then close.
pub struct TtcpSender {
    task: TaskId,
    dst: SockAddr,
    /// Bytes per write(2) call (the figures' x-axis).
    pub write_size: usize,
    /// Total bytes to transmit.
    pub total_bytes: usize,
    /// Base virtual address of the (reused) user buffer.
    pub buf_vaddr: u64,
    sock: Option<SockId>,
    state: TxState,
    /// Bytes accepted by the socket so far.
    pub bytes_written: usize,
    /// write(2) calls completed.
    pub writes: u64,
}

impl TtcpSender {
    /// A sender that connects to `dst` and streams `total_bytes`.
    pub fn new(task: TaskId, dst: SockAddr, write_size: usize, total_bytes: usize) -> TtcpSender {
        TtcpSender {
            task,
            dst,
            write_size,
            total_bytes,
            buf_vaddr: 0x10_0000,
            sock: None,
            state: TxState::Start,
            bytes_written: 0,
            writes: 0,
        }
    }

    /// The connected socket, once created.
    pub fn sock(&self) -> Option<SockId> {
        self.sock
    }

    fn fill_buffer(&self, ctx: &mut SysCtx<'_>, len: usize) {
        // The user buffer holds the stream bytes for the *next* write; ttcp
        // reuses one buffer, so refill per write with the right offsets.
        let buf = ctx
            .mem
            .user_slice_mut(self.task, self.buf_vaddr, len)
            .expect("sender buffer");
        fill_stream(ttcp_word, self.bytes_written, buf);
    }
}

impl App for TtcpSender {
    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn finished(&self) -> bool {
        self.state == TxState::Done
    }

    fn step(&mut self, ctx: &mut SysCtx<'_>) -> Step {
        match self.state {
            TxState::Start => {
                ctx.mem
                    .create_region(self.task, self.buf_vaddr, self.write_size.max(4096));
                let sock = ctx.kernel.sys_socket(Proto::Tcp);
                self.sock = Some(sock);
                let fx = ctx
                    .kernel
                    .sys_connect(sock, self.task, self.dst, ctx.mem, ctx.now)
                    .expect("connect");
                ctx.absorb(fx);
                self.state = TxState::Connecting;
                Step::Wait
            }
            TxState::Connecting => {
                // Woken on ESTABLISHED.
                self.state = TxState::Writing;
                self.step_write(ctx)
            }
            TxState::Writing => self.step_write(ctx),
            TxState::Closing => {
                // Woken when the write drained; issue the close.
                let fx = ctx.kernel.sys_close(self.sock.unwrap(), ctx.mem, ctx.now);
                ctx.absorb(fx);
                self.state = TxState::Done;
                Step::Done
            }
            TxState::Done => Step::Done,
        }
    }
}

impl TtcpSender {
    fn step_write(&mut self, ctx: &mut SysCtx<'_>) -> Step {
        if self.bytes_written >= self.total_bytes {
            self.state = TxState::Closing;
            // Close immediately in this quantum.
            let fx = ctx.kernel.sys_close(self.sock.unwrap(), ctx.mem, ctx.now);
            ctx.absorb(fx);
            self.state = TxState::Done;
            return Step::Done;
        }
        ctx.user_cpu(TTCP_LOOP_US);
        let len = self.write_size.min(self.total_bytes - self.bytes_written);
        self.fill_buffer(ctx, len);
        let r = ctx.kernel.sys_write(
            self.sock.unwrap(),
            self.task,
            self.buf_vaddr,
            len,
            ctx.mem,
            ctx.now,
        );
        match r {
            Ok((WriteResult::Done { bytes }, fx)) => {
                ctx.absorb(fx);
                self.bytes_written += bytes;
                self.writes += 1;
                Step::Continue
            }
            Ok((WriteResult::Blocked { .. }, fx)) => {
                ctx.absorb(fx);
                // Copy semantics: when woken, the whole write is accepted.
                self.bytes_written += len;
                self.writes += 1;
                Step::Wait
            }
            Err(StackError::InvalidState(_)) => {
                // Spurious wake while a write is still pending.
                Step::Wait
            }
            Err(e) => panic!("ttcp write failed: {e}"),
        }
    }
}

/// Receiver states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RxState {
    Start,
    Accepting,
    Reading,
    Done,
}

/// A ttcp receiver: listen/accept, read to EOF, verify the pattern.
pub struct TtcpReceiver {
    task: TaskId,
    port: u16,
    /// Bytes requested per read(2) call.
    pub read_size: usize,
    listener: Option<SockId>,
    conn: Option<SockId>,
    state: RxState,
    /// Base virtual address of the receive buffer.
    pub buf_vaddr: u64,
    /// Bytes received so far.
    pub bytes_read: usize,
    /// read(2) calls that returned data.
    pub reads: u64,
    /// A read whose DMA completion we are waiting on.
    pending_dma: Option<usize>,
    /// Check every received byte against the pattern.
    pub verify: bool,
    /// Bytes that did not match the pattern.
    pub verify_errors: u64,
}

impl TtcpReceiver {
    /// A receiver listening on `port`.
    pub fn new(task: TaskId, port: u16, read_size: usize) -> TtcpReceiver {
        TtcpReceiver {
            task,
            port,
            read_size,
            listener: None,
            conn: None,
            state: RxState::Start,
            buf_vaddr: 0x20_0000,
            bytes_read: 0,
            reads: 0,
            pending_dma: None,
            verify: true,
            verify_errors: 0,
        }
    }

    /// The accepted connection, once established.
    pub fn conn(&self) -> Option<SockId> {
        self.conn
    }

    fn verify_buf(&mut self, ctx: &mut SysCtx<'_>, base_off: usize, len: usize) {
        if !self.verify {
            return;
        }
        let buf = ctx
            .mem
            .user_slice(self.task, self.buf_vaddr, len)
            .expect("receiver buffer");
        self.verify_errors += stream_mismatches(ttcp_word, base_off, buf);
    }
}

impl App for TtcpReceiver {
    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn finished(&self) -> bool {
        self.state == RxState::Done
    }

    fn step(&mut self, ctx: &mut SysCtx<'_>) -> Step {
        match self.state {
            RxState::Start => {
                ctx.mem
                    .create_region(self.task, self.buf_vaddr, self.read_size.max(4096));
                let l = ctx.kernel.sys_socket(Proto::Tcp);
                ctx.kernel.sys_bind(l, self.port).expect("bind");
                ctx.kernel.sys_listen(l).expect("listen");
                self.listener = Some(l);
                self.state = RxState::Accepting;
                match ctx.kernel.sys_accept(l, self.task).expect("accept") {
                    Some(c) => {
                        self.conn = Some(c);
                        self.state = RxState::Reading;
                        self.step(ctx)
                    }
                    None => Step::Wait,
                }
            }
            RxState::Accepting => match ctx
                .kernel
                .sys_accept(self.listener.unwrap(), self.task)
                .expect("accept")
            {
                Some(c) => {
                    self.conn = Some(c);
                    self.state = RxState::Reading;
                    self.step(ctx)
                }
                None => Step::Wait,
            },
            RxState::Reading => {
                // A DMA-blocked read completes on this wake.
                if let Some(bytes) = self.pending_dma.take() {
                    self.verify_buf(ctx, self.bytes_read, bytes);
                    self.bytes_read += bytes;
                    self.reads += 1;
                }
                ctx.user_cpu(TTCP_LOOP_US);
                let r = ctx.kernel.sys_read(
                    self.conn.unwrap(),
                    self.task,
                    self.buf_vaddr,
                    self.read_size,
                    ctx.mem,
                    ctx.now,
                );
                match r {
                    Ok((ReadResult::Done { bytes }, fx)) => {
                        ctx.absorb(fx);
                        self.verify_buf(ctx, self.bytes_read, bytes);
                        self.bytes_read += bytes;
                        self.reads += 1;
                        Step::Continue
                    }
                    Ok((ReadResult::BlockedDma { bytes }, fx)) => {
                        ctx.absorb(fx);
                        self.pending_dma = Some(bytes);
                        Step::Wait
                    }
                    Ok((ReadResult::WouldBlock, fx)) => {
                        ctx.absorb(fx);
                        Step::Wait
                    }
                    Ok((ReadResult::Eof, fx)) => {
                        ctx.absorb(fx);
                        let fx = ctx.kernel.sys_close(self.conn.unwrap(), ctx.mem, ctx.now);
                        ctx.absorb(fx);
                        self.state = RxState::Done;
                        Step::Done
                    }
                    Err(StackError::InvalidState(_)) => Step::Wait,
                    Err(e) => panic!("ttcp read failed: {e}"),
                }
            }
            RxState::Done => Step::Done,
        }
    }
}

/// An in-kernel file server (§5): an NFS-like block service over UDP with
/// share semantics. Requests are 12 bytes — `"RD"`, block (u32), count
/// (u16), padding — and the response echoes the block number followed by
/// `count` bytes of that block's deterministic contents.
pub struct KernelFileServer {
    task: TaskId,
    /// The kernel socket, once created.
    pub sock: Option<SockId>,
    /// UDP port served.
    pub port: u16,
    /// Requests answered.
    pub requests_served: u64,
    /// Maximum bytes served per request.
    pub block_size: usize,
}

/// The word stream of block `block`'s deterministic "disk" contents: the
/// ttcp payload's generator under a per-block key, so contents have no
/// short period within a block and differ from block to block.
fn file_block_words(block: u32) -> impl Fn(u64) -> u64 {
    let key = splitmix64_at(FILE_KEY, u64::from(block));
    move |w| splitmix64_at(key, w)
}

/// Deterministic "disk" contents for block `b`, offset `i`.
pub fn file_block_byte(block: u32, i: usize) -> u8 {
    stream_byte(file_block_words(block), i)
}

impl KernelFileServer {
    /// A server that will bind a kernel socket on `port`.
    pub fn new(task: TaskId, port: u16) -> KernelFileServer {
        KernelFileServer {
            task,
            sock: None,
            port,
            requests_served: 0,
            block_size: 8192,
        }
    }
}

impl App for KernelFileServer {
    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn finished(&self) -> bool {
        false // servers run forever
    }

    fn step(&mut self, ctx: &mut SysCtx<'_>) -> Step {
        if self.sock.is_none() {
            let s = ctx.kernel.kernel_socket(Proto::Udp);
            ctx.kernel.sys_bind(s, self.port).expect("bind");
            self.sock = Some(s);
        }
        Step::Wait
    }

    fn on_kernel_ready(&mut self, ctx: &mut SysCtx<'_>, sock: SockId) -> Step {
        // Drain every ready request in arrival order.
        while let Some((chain, from)) = ctx.kernel.kernel_recv(sock) {
            let flat = chain.flatten_kernel().expect("converted to regular mbufs");
            if flat.len() < 8 || &flat[..2] != b"RD" {
                continue;
            }
            let block = u32::from_be_bytes([flat[2], flat[3], flat[4], flat[5]]);
            let count = u16::from_be_bytes([flat[6], flat[7]]) as usize;
            let count = count.min(self.block_size);
            // Build the response as a shared kernel mbuf chain (share
            // semantics: no copy on the way down).
            let mut resp = vec![0u8; 4 + count];
            resp[..4].copy_from_slice(&block.to_be_bytes());
            fill_stream(file_block_words(block), 0, &mut resp[4..]);
            let resp = Chain::from_bytes(Bytes::from(resp));
            let fx = ctx
                .kernel
                .kernel_sendto(sock, resp, from, ctx.mem, ctx.now)
                .expect("send response");
            ctx.absorb(fx);
            self.requests_served += 1;
        }
        Step::Wait
    }
}

/// A user-space client for the kernel file server: requests `blocks`
/// sequential blocks and verifies their contents.
pub struct FileClient {
    task: TaskId,
    server: SockAddr,
    /// Sequential blocks to request.
    pub blocks: u32,
    /// Bytes requested per block.
    pub count: usize,
    sock: Option<SockId>,
    state: u8, // 0=start, 1=waiting reply, 2=done
    next_block: u32,
    /// Base virtual address of the request/response buffer.
    pub buf_vaddr: u64,
    /// Reply bytes that failed verification.
    pub verify_errors: u64,
    /// Blocks received and checked.
    pub blocks_received: u32,
    pending_dma: Option<usize>,
}

impl FileClient {
    /// A client that requests `blocks` blocks of `count` bytes from `server`.
    pub fn new(task: TaskId, server: SockAddr, blocks: u32, count: usize) -> FileClient {
        FileClient {
            task,
            server,
            blocks,
            count,
            sock: None,
            state: 0,
            next_block: 0,
            buf_vaddr: 0x30_0000,
            verify_errors: 0,
            blocks_received: 0,
            pending_dma: None,
        }
    }

    fn send_request(&mut self, ctx: &mut SysCtx<'_>) {
        use outboard_host::UserMemory;
        let mut req = [0u8; 12];
        req[..2].copy_from_slice(b"RD");
        req[2..6].copy_from_slice(&self.next_block.to_be_bytes());
        req[6..8].copy_from_slice(&(self.count as u16).to_be_bytes());
        ctx.mem
            .write_user(self.task, self.buf_vaddr, &req)
            .expect("client buffer");
        match ctx.kernel.sys_write(
            self.sock.unwrap(),
            self.task,
            self.buf_vaddr,
            12,
            ctx.mem,
            ctx.now,
        ) {
            Ok((_, fx)) => ctx.absorb(fx),
            Err(e) => panic!("file client request: {e}"),
        }
    }

    fn check_reply(&mut self, ctx: &mut SysCtx<'_>, bytes: usize) {
        let data = ctx
            .mem
            .user_slice(self.task, self.buf_vaddr, bytes)
            .expect("client buffer");
        if bytes < 4 {
            self.verify_errors += 1;
        } else {
            let block = u32::from_be_bytes([data[0], data[1], data[2], data[3]]);
            if block != self.next_block {
                self.verify_errors += 1;
            }
            self.verify_errors += stream_mismatches(file_block_words(block), 0, &data[4..]);
        }
        self.blocks_received += 1;
        self.next_block += 1;
    }
}

impl App for FileClient {
    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn finished(&self) -> bool {
        self.state == 2
    }

    fn step(&mut self, ctx: &mut SysCtx<'_>) -> Step {
        use outboard_stack::ReadResult;
        if self.state == 2 {
            return Step::Done;
        }
        if self.sock.is_none() {
            ctx.mem
                .create_region(self.task, self.buf_vaddr, self.count.max(4096) + 64);
            let s = ctx.kernel.sys_socket(Proto::Udp);
            ctx.kernel.sys_connect_udp(s, self.server).expect("connect");
            self.sock = Some(s);
            self.send_request(ctx);
            self.state = 1;
        }
        // Waiting for (or woken by) a reply.
        if let Some(bytes) = self.pending_dma.take() {
            self.check_reply(ctx, bytes);
            if self.next_block >= self.blocks {
                self.state = 2;
                return Step::Done;
            }
            self.send_request(ctx);
        }
        match ctx.kernel.sys_read(
            self.sock.unwrap(),
            self.task,
            self.buf_vaddr,
            self.count + 64,
            ctx.mem,
            ctx.now,
        ) {
            Ok((ReadResult::Done { bytes }, fx)) => {
                ctx.absorb(fx);
                self.check_reply(ctx, bytes);
                if self.next_block >= self.blocks {
                    self.state = 2;
                    return Step::Done;
                }
                self.send_request(ctx);
                Step::Continue
            }
            Ok((ReadResult::BlockedDma { bytes }, fx)) => {
                ctx.absorb(fx);
                self.pending_dma = Some(bytes);
                Step::Wait
            }
            Ok((ReadResult::WouldBlock, fx)) | Ok((ReadResult::Eof, fx)) => {
                ctx.absorb(fx);
                Step::Wait
            }
            Err(StackError::InvalidState(_)) => Step::Wait,
            Err(e) => panic!("file client read: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-level reference for [`fill_stream`].
    fn reference(off: usize, len: usize) -> Vec<u8> {
        (off..off + len).map(ttcp_pattern).collect()
    }

    #[test]
    fn fill_matches_the_byte_reference_at_every_alignment() {
        for off in 0..16 {
            for len in 0..40 {
                let mut buf = vec![0xA5; len];
                fill_stream(ttcp_word, off, &mut buf);
                assert_eq!(buf, reference(off, len), "off {off} len {len}");
                assert_eq!(stream_mismatches(ttcp_word, off, &buf), 0);
            }
        }
        let off = 3 * 8192 + 5;
        let mut big = vec![0; 1 << 20];
        fill_stream(ttcp_word, off, &mut big);
        assert_eq!(big, reference(off, 1 << 20));
    }

    #[test]
    fn mismatch_counts_are_exact_bytes() {
        for off in 0..16 {
            for len in 1..40 {
                let good = reference(off, len);
                for at in [0, len / 2, len - 1] {
                    let mut bad = good.clone();
                    bad[at] ^= 0x10;
                    assert_eq!(
                        stream_mismatches(ttcp_word, off, &bad),
                        1,
                        "off {off} len {len} flip at {at}"
                    );
                }
                // Every byte wrong.
                let inverted: Vec<u8> = good.iter().map(|b| !b).collect();
                assert_eq!(stream_mismatches(ttcp_word, off, &inverted), len as u64);
            }
        }
        // Two swapped 8 KB pages of a 1 MiB buffer: the count is exactly the
        // number of byte positions where the pages differ, twice.
        let off = 8192;
        let good = reference(off, 1 << 20);
        let mut swapped = good.clone();
        let (a, b) = (5 * 8192, 9 * 8192);
        let differing = (0..8192).filter(|&k| good[a + k] != good[b + k]).count() as u64;
        assert!(differing > 8000, "pages should be unrelated: {differing}");
        let (lo, hi) = swapped.split_at_mut(b);
        lo[a..a + 8192].swap_with_slice(&mut hi[..8192]);
        assert_eq!(stream_mismatches(ttcp_word, off, &swapped), 2 * differing);
        let flipped = {
            let mut v = good;
            v[12345] ^= 1;
            v
        };
        assert_eq!(stream_mismatches(ttcp_word, off, &flipped), 1);
    }

    #[test]
    fn every_page_of_a_16_mib_stream_is_distinct() {
        let mut stream = vec![0u8; 16 << 20];
        fill_stream(ttcp_word, 0, &mut stream);
        let mut pages: Vec<&[u8]> = stream.chunks_exact(8192).collect();
        assert_eq!(pages.len(), 2048);
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(pages.len(), 2048, "two pages of the stream are identical");
    }

    #[test]
    fn file_blocks_share_the_generator_and_do_not_repeat() {
        let mut block = vec![0u8; 8192];
        fill_stream(file_block_words(7), 0, &mut block);
        for (i, &b) in block.iter().enumerate() {
            assert_eq!(b, file_block_byte(7, i));
        }
        // No 256-byte period within a block, and block numbers 256 apart
        // hold different contents.
        assert_ne!(block[..256], block[256..512]);
        let other: Vec<u8> = (0..8192).map(|i| file_block_byte(7 + 256, i)).collect();
        assert_ne!(block, other);
        assert_eq!(stream_mismatches(file_block_words(7), 0, &block), 0);
        assert!(stream_mismatches(file_block_words(8), 0, &block) > 8000);
    }
}
