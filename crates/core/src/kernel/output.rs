//! Kernel transmit paths: TCP segment emission, the shared transport tail
//! (checksum strategy selection), IP output with fragmentation, and the
//! three drivers' output routines.

use super::{Kernel, TxMeta};
use crate::driver::{IfaceKind, PendingTx, SdmaPurpose};
use crate::ip;
use crate::socket::Owner;
use crate::tcp::SegmentPlan;
use crate::types::{Effect, IfaceId, SockAddr, SockId, TimerKind};
use bytes::Bytes;
use outboard_cab::{CabError, ChecksumSpec, PacketId, SdmaTx, SgEntry};
use outboard_host::{Charge, HostMem};
use outboard_mbuf::{Chain, CsumPlan, MbufData};
use outboard_sim::span::{FlowId, Stage};
use outboard_sim::Time;
use outboard_wire::checksum::{pseudo_header_sum, Accumulator};
use outboard_wire::ether::{EtherHeader, ETHER_HEADER_LEN};
use outboard_wire::hippi::{HippiHeader, HIPPI_HEADER_LEN};
use outboard_wire::ipv4::{Ipv4Header, IPV4_HEADER_LEN};
use outboard_wire::tcp::{TcpHeader, TCP_CSUM_OFFSET};
use outboard_wire::udp::UdpHeader;
use outboard_wire::{proto, TcpFlags};
use std::net::Ipv4Addr;

impl Kernel {
    /// Run tcp_output for a socket: materialize every segment the TCB wants
    /// to send and push it down through IP to the driver.
    pub(crate) fn tcp_send(&mut self, sock: SockId, mem: &mut HostMem, now: Time, force_ack: bool) {
        let (local, remote, plans) = {
            let Some(s) = self.sockets.get_mut(&sock) else {
                return;
            };
            let (local, remote) = match (s.local, s.remote) {
                (Some(l), Some(r)) => (l, r),
                _ => return,
            };
            let Some(tcb) = s.tcb.as_mut() else { return };
            let snd_q = s.so_snd.chain.len();
            let rcv_space = s.so_rcv.space();
            (local, remote, tcb.output(snd_q, rcv_space, force_ack, now))
        };
        for plan in plans {
            self.emit_tcp_segment(sock, local, remote, &plan, mem, now);
        }
        self.arm_tcp_timers(sock, now);
    }

    fn emit_tcp_segment(
        &mut self,
        sock: SockId,
        local: SockAddr,
        remote: SockAddr,
        plan: &SegmentPlan,
        mem: &mut HostMem,
        now: Time,
    ) {
        self.cpu(self.machine.cost_tcp_output_us, Charge::Syscall);
        let data = {
            let Some(s) = self.sockets.get(&sock) else {
                return;
            };
            s.so_snd.chain.copy_range(plan.data_off, plan.data_len)
        };
        let mut hdr = TcpHeader::new(local.port, remote.port, plan.seq, plan.ack, plan.flags);
        hdr.window = plan.window;
        hdr.mss = plan.mss_opt;
        hdr.window_scale = plan.ws_opt;
        let flow = if self.spans.on() {
            let group = FlowId::group_of(
                local.ip.octets(),
                local.port,
                remote.ip.octets(),
                remote.port,
            );
            FlowId::from_parts(group, plan.seq)
        } else {
            FlowId::NONE
        };
        let meta = TxMeta {
            sock: Some(sock),
            seq_lo: plan.seq,
            retransmit: plan.retransmit,
            // Keep single-copy TCP data outboard until acknowledged (the
            // M_WCAB conversion frees it on ACK). Control segments and
            // traditional-path data (which retransmits from kernel mbufs)
            // free right after MDMA.
            free_after_mdma: plan.data_len == 0 || !data.has_uio(),
            flow,
        };
        self.stats.tcp_segs_out += 1;
        if self.spans.on() {
            let end = now + outboard_sim::Dur::from_micros_f64(self.machine.cost_tcp_output_us);
            self.spans
                .span(flow, Stage::KernelOutput, now, end, plan.data_len as u64);
        }
        if plan.retransmit {
            self.stats.tcp_retransmit_segs += 1;
            if self.spans.on() {
                self.spans
                    .span(flow, Stage::Retransmit, now, now, plan.data_len as u64);
            }
        }
        self.transport_output(
            local.ip,
            remote.ip,
            proto::TCP,
            hdr.build(),
            TCP_CSUM_OFFSET,
            data,
            meta,
            mem,
            now,
        );
    }

    /// Emit a bare RST (segment to a closed/refusing endpoint).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn emit_rst(
        &mut self,
        local: SockAddr,
        remote: SockAddr,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        mem: &mut HostMem,
        now: Time,
    ) {
        // Count only RSTs that will actually reach a driver; an unroutable
        // one keeps the checksum-conservation invariant honest.
        if self.routes.lookup(remote.ip).is_none() {
            self.stats.ip_errors += 1;
            return;
        }
        self.stats.rst_sent += 1;
        let mut hdr = TcpHeader::new(local.port, remote.port, seq, ack, flags);
        hdr.window = 0;
        self.transport_output(
            local.ip,
            remote.ip,
            proto::TCP,
            hdr.build(),
            TCP_CSUM_OFFSET,
            Chain::new(),
            TxMeta::plain(),
            mem,
            now,
        );
    }

    /// (Re)arm TCP timers after input/output activity.
    pub(crate) fn arm_tcp_timers(&mut self, sock: SockId, _now: Time) {
        let Some(s) = self.sockets.get_mut(&sock) else {
            return;
        };
        let Some(tcb) = s.tcb.as_mut() else { return };
        if tcb.wants_rexmt_timer() {
            if !s.rexmt_armed {
                s.rexmt_armed = true;
                s.rexmt_gen += 1;
                let kind = TimerKind::TcpRexmt {
                    sock,
                    generation: s.rexmt_gen,
                };
                let after = tcb.rto;
                self.fx.push(Effect::Timer { after, kind });
            }
        } else {
            // Everything acknowledged: invalidate the pending timer.
            s.rexmt_armed = false;
            s.rexmt_gen += 1;
        }
        let Some(s) = self.sockets.get_mut(&sock) else {
            return;
        };
        let Some(tcb) = s.tcb.as_mut() else { return };
        if tcb.delack_pending {
            s.delack_gen += 1;
            let kind = TimerKind::TcpDelack {
                sock,
                generation: s.delack_gen,
            };
            let after = self.cfg.delack_timeout;
            self.fx.push(Effect::Timer { after, kind });
        }
    }

    /// Shared TCP/UDP transmit tail: checksum strategy, IP, driver.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transport_output(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ip_proto: u8,
        mut thdr: Vec<u8>,
        csum_offset: usize,
        data: Chain,
        meta: TxMeta,
        mem: &mut HostMem,
        now: Time,
    ) {
        // Route per packet — §4.1: interface selection is a network-layer
        // decision and may change during a connection's lifetime.
        let Some(iface_id) = self.routes.lookup(dst) else {
            self.stats.ip_errors += 1;
            return;
        };
        let iface = &self.ifaces[iface_id.0 as usize];
        let is_loop = matches!(iface.kind, IfaceKind::Loopback);
        // The unmodified stack never uses the outboard checksum engine —
        // that is exactly the modification under test.
        let single_copy = self.cfg.mode == crate::types::StackMode::SingleCopy
            && iface.single_copy_capable()
            && thdr.len() + data.len() + IPV4_HEADER_LEN <= iface.mtu;
        // A legacy (or size-fallback) path cannot leave M_UIO descriptors
        // in flight: convert at the driver boundary (§5), crediting the
        // writer's counter — the copy has merely been delayed.
        let data = if !single_copy && data.has_uio() {
            let m = meta;
            self.legacy_convert_uio(&m, data, mem)
        } else {
            data
        };
        let transport_len = thdr.len() + data.len();
        // Account payload pushed through the traditional path because the
        // interface is degraded (it would have gone single-copy otherwise).
        if !single_copy && !data.is_empty() && self.cfg.mode == crate::types::StackMode::SingleCopy
        {
            if let IfaceKind::Cab(c) = &mut self.ifaces[iface_id.0 as usize].kind {
                if c.health.degraded {
                    c.health.stats.fallback_bytes += data.len() as u64;
                }
            }
        }

        let csum_plan = if single_copy {
            // Outboard checksumming (§4.3): seed the checksum field with
            // the host-owned partial sum; the CAB covers the data.
            thdr[csum_offset] = 0;
            thdr[csum_offset + 1] = 0;
            let seed = crate::udp::transport_seed(src, dst, ip_proto, transport_len, &thdr);
            thdr[csum_offset..csum_offset + 2].copy_from_slice(&seed.to_be_bytes());
            self.stats.hw_checksums += 1;
            Some(CsumPlan {
                csum_offset,
                skip_words: thdr.len() / 4,
                seed,
            })
        } else if is_loop {
            // Loopback never corrupts; BSD skips the checksum here too.
            None
        } else {
            // Traditional path: the software checksum read (`Read_C`). The
            // cache working set is the data the sender cycles through — the
            // send queue (§7.3 measures the read over the window size).
            thdr[csum_offset] = 0;
            thdr[csum_offset + 1] = 0;
            let working_set = meta
                .sock
                .and_then(|s| self.sockets.get(&s))
                .map(|s| s.so_snd.chain.len())
                .unwrap_or(0)
                .max(transport_len);
            let read_cost = self.memsys.read_cost(transport_len, working_set);
            self.cpu_dur(read_cost, Charge::Syscall);
            let pseudo =
                pseudo_header_sum(src.octets(), dst.octets(), ip_proto, transport_len as u16);
            let mut acc = Accumulator::from_partial(pseudo);
            acc.add_bytes(&thdr);
            let data_sum = self.software_chain_sum(&data, mem);
            acc.add_partial(data_sum);
            let mut c = !acc.partial();
            if ip_proto == proto::UDP {
                c = UdpHeader::encode_checksum(c);
            }
            thdr[csum_offset..csum_offset + 2].copy_from_slice(&c.to_be_bytes());
            self.stats.sw_checksums += 1;
            None
        };

        // Assemble the transport packet chain: header + data.
        let mut packet = Chain::new();
        packet.concat(data);
        packet.prepend(Bytes::from(thdr));
        packet.hdr.csum_plan = csum_plan;
        self.ip_output(src, dst, ip_proto, packet, iface_id, meta, mem, now);
    }

    /// §5's conversion layer for legacy devices, applied at the source: the
    /// user data is copied into kernel mbufs now ("a copy has merely been
    /// delayed"), the send queue's `M_UIO` range becomes regular data, and
    /// the write's UIO counter is credited — exactly what the `M_WCAB`
    /// conversion does on the CAB path, with a memory copy in place of DMA.
    fn legacy_convert_uio(&mut self, meta: &TxMeta, data: Chain, mem: &HostMem) -> Chain {
        use outboard_host::UserMemory;
        let uio_bytes: usize = data
            .iter()
            .filter_map(|m| match m.data() {
                MbufData::Uio(d) => Some(d.len),
                _ => None,
            })
            .sum();
        if uio_bytes == 0 {
            return data;
        }
        self.stats.uio_to_regular += 1;
        let cost = self.memsys.copy_cost(uio_bytes, uio_bytes.max(4096));
        self.cpu_dur(cost, Charge::Syscall);

        // Materialize the outgoing chain.
        let mut out = Chain::new();
        out.hdr = data.hdr.clone();
        let mut credited: Vec<(outboard_mbuf::UioCounterId, usize)> = Vec::new();
        for m in data.iter() {
            match m.data() {
                MbufData::Uio(d) => {
                    let mut buf = vec![0u8; d.len];
                    if mem.read_user(d.region.task, d.vaddr(), &mut buf).is_err() {
                        self.stats.user_mem_faults += 1;
                    }
                    if let Some(c) = d.counter {
                        credited.push((c, d.len));
                    }
                    out.append(outboard_mbuf::Mbuf::kernel(Bytes::from(buf)));
                }
                _ => out.append(m.clone()),
            }
        }

        // TCP retains data in so_snd: rewrite the queued range so later
        // retransmissions (and the counter bookkeeping) see regular mbufs.
        // Counters are credited through the queue rewrite to avoid double
        // counting; datagram sockets (nothing retained) credit directly.
        let mut rewrote_queue = false;
        if let Some(sock) = meta.sock {
            if let Some(s) = self.sockets.get_mut(&sock) {
                if let Some(tcb) = s.tcb.as_ref() {
                    use outboard_wire::tcp::seq;
                    let base = tcb.snd_una;
                    let data_len = out.len();
                    let (skip_front, off_in_q) = if seq::lt(meta.seq_lo, base) {
                        (seq::diff(base, meta.seq_lo) as usize, 0usize)
                    } else {
                        (0usize, seq::diff(meta.seq_lo, base) as usize)
                    };
                    if skip_front < data_len {
                        let len = (data_len - skip_front)
                            .min(s.so_snd.chain.len().saturating_sub(off_in_q));
                        if len > 0 {
                            let flat: Vec<u8> = {
                                let piece = out.copy_range(skip_front, len);
                                self.chain_bytes(&piece, mem)
                            };
                            if let Some(sref) = self.sockets.get_mut(&sock) {
                                rewrote_queue = true;
                                let chain = std::mem::take(&mut sref.so_snd.chain);
                                let (new_chain, removed) = crate::kernel::replace_range_take(
                                    chain,
                                    off_in_q,
                                    len,
                                    outboard_mbuf::Mbuf::kernel(Bytes::from(flat)),
                                );
                                sref.so_snd.chain = new_chain;
                                let mut wakes = Vec::new();
                                for m in removed.iter() {
                                    if let MbufData::Uio(d) = m.data() {
                                        if let Some(c) = d.counter {
                                            if let Some(st) = self.uio.complete(c, d.len) {
                                                wakes.push((st.task, st.sock));
                                            }
                                        }
                                    }
                                }
                                for (task, wsock) in wakes {
                                    if let Some(s) = self.sockets.get_mut(&wsock) {
                                        s.blocked_write = None;
                                    }
                                    self.wake(task, wsock, Charge::Syscall);
                                }
                            }
                        }
                    }
                }
            }
        }
        if !rewrote_queue {
            let mut wakes = Vec::new();
            for (c, len) in credited {
                if let Some(st) = self.uio.complete(c, len) {
                    wakes.push((st.task, st.sock));
                }
            }
            for (task, wsock) in wakes {
                if let Some(s) = self.sockets.get_mut(&wsock) {
                    s.blocked_write = None;
                }
                self.wake(task, wsock, Charge::Syscall);
            }
        }
        out
    }

    /// Flatten a chain to bytes, resolving UIO (user memory) and WCAB
    /// (outboard memory) descriptors without charging costs (helper for
    /// conversions that have already accounted the copy).
    fn chain_bytes(&mut self, chain: &Chain, mem: &HostMem) -> Vec<u8> {
        use outboard_host::UserMemory;
        let mut outb = Vec::with_capacity(chain.len());
        for m in chain.iter() {
            match m.data() {
                MbufData::Kernel(b) => outb.extend_from_slice(b),
                MbufData::Uio(d) => {
                    // Read straight into the output tail; no temporary.
                    let at = outb.len();
                    outb.resize(at + d.len, 0);
                    if mem
                        .read_user(d.region.task, d.vaddr(), &mut outb[at..])
                        .is_err()
                    {
                        self.stats.user_mem_faults += 1;
                    }
                }
                MbufData::Wcab(d) => {
                    // A buffer lost to a board reset reads as zeros; the
                    // peer's checksum rejects the segment and TCP recovers.
                    let at = outb.len();
                    outb.resize(at + d.len, 0);
                    let iface = &self.ifaces[d.cab as usize];
                    if let IfaceKind::Cab(c) = &iface.kind {
                        let _ = c
                            .cab
                            .read_packet(PacketId(d.packet), d.off, &mut outb[at..]);
                    }
                }
            }
        }
        outb
    }

    /// Software ones-complement sum over a chain, resolving external
    /// descriptors (traditional path and conversion layers).
    pub(crate) fn software_chain_sum(&mut self, chain: &Chain, mem: &HostMem) -> u16 {
        use outboard_host::UserMemory;
        let mut acc = Accumulator::new();
        // External descriptors resolve through the recycled scratch buffer
        // instead of a fresh allocation per mbuf.
        let mut scratch = std::mem::take(&mut self.scratch);
        for m in chain.iter() {
            match m.data() {
                MbufData::Kernel(b) => acc.add_bytes(b),
                MbufData::Uio(d) => {
                    scratch.clear();
                    scratch.resize(d.len, 0);
                    if mem
                        .read_user(d.region.task, d.vaddr(), &mut scratch)
                        .is_err()
                    {
                        self.stats.user_mem_faults += 1;
                    }
                    acc.add_bytes(&scratch);
                }
                MbufData::Wcab(d) => {
                    scratch.clear();
                    scratch.resize(d.len, 0);
                    let iface = &self.ifaces[d.cab as usize];
                    if let IfaceKind::Cab(c) = &iface.kind {
                        let _ = c.cab.read_packet(PacketId(d.packet), d.off, &mut scratch);
                    }
                    acc.add_bytes(&scratch);
                }
            }
        }
        self.scratch = scratch;
        acc.partial()
    }

    /// IP output: header, fragmentation, dispatch to the driver.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn ip_output(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ip_proto: u8,
        transport: Chain,
        iface_id: IfaceId,
        meta: TxMeta,
        mem: &mut HostMem,
        now: Time,
    ) {
        self.cpu(self.machine.cost_ip_us, Charge::Syscall);
        let mtu = self.ifaces[iface_id.0 as usize].mtu;
        let id = self.ip_id;
        self.ip_id = self.ip_id.wrapping_add(1);

        if transport.len() + IPV4_HEADER_LEN <= mtu {
            let hdr = Ipv4Header::new(src, dst, ip_proto, transport.len(), id);
            self.link_output(iface_id, hdr, transport, meta, mem, now);
            return;
        }
        // Fragment (traditional path only; single-copy packets fit the MTU
        // by construction).
        assert!(
            transport.hdr.csum_plan.is_none(),
            "outboard checksum cannot span fragments"
        );
        let plan = ip::fragment_plan(transport.len(), mtu, IPV4_HEADER_LEN);
        for part in plan {
            let mut hdr = Ipv4Header::new(src, dst, ip_proto, part.len, id);
            hdr.flags_frag = ((part.offset / 8) as u16)
                | if part.more {
                    outboard_wire::ipv4::IP_MF
                } else {
                    0
                };
            let frag = transport.copy_range(part.offset, part.len);
            self.stats.frags_sent += 1;
            self.link_output(iface_id, hdr, frag, TxMeta::plain(), mem, now);
        }
    }

    /// Hand a finished IP packet to the interface's driver.
    fn link_output(
        &mut self,
        iface_id: IfaceId,
        ip_hdr: Ipv4Header,
        transport: Chain,
        meta: TxMeta,
        mem: &mut HostMem,
        now: Time,
    ) {
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += ip_hdr.total_len as u64;
        match &self.ifaces[iface_id.0 as usize].kind {
            IfaceKind::Cab(_) => self.cab_output(iface_id, ip_hdr, transport, meta, mem, now),
            IfaceKind::Eth(_) => self.eth_output(iface_id, ip_hdr, transport, mem, now),
            IfaceKind::Loopback => self.loop_output(iface_id, ip_hdr, transport, mem, now),
        }
    }

    /// The CAB driver's output routine (§3): all the stack's data-touching
    /// work happens here, in hardware.
    fn cab_output(
        &mut self,
        iface_id: IfaceId,
        ip_hdr: Ipv4Header,
        transport: Chain,
        meta: TxMeta,
        mem: &mut HostMem,
        now: Time,
    ) {
        self.cpu(self.machine.cost_driver_pkt_us, Charge::Syscall);
        let csum_plan = transport.hdr.csum_plan;
        let ip_bytes = ip_hdr.build();
        let frame_len = HIPPI_HEADER_LEN + ip_hdr.total_len as usize;

        // The transport header is the chain's leading kernel mbuf.
        let thdr_len = transport
            .iter()
            .next()
            .and_then(|m| m.kernel_bytes())
            .map(|b| b.len())
            .unwrap_or(0);
        let data_len = transport.len() - thdr_len;
        let full_hdr_len = HIPPI_HEADER_LEN + IPV4_HEADER_LEN + thdr_len;

        self.with_cab(iface_id, |k, cab| {
            let Some(&hippi_dst) = cab.arp.get(&ip_hdr.dst) else {
                k.stats.ip_errors += 1;
                return;
            };
            let channel = cab.channel_for(hippi_dst);
            let hippi =
                HippiHeader::new(cab.cab.addr, hippi_dst, ip_hdr.total_len as usize, channel);
            let spec = csum_plan.map(|p| ChecksumSpec {
                csum_offset: HIPPI_HEADER_LEN + IPV4_HEADER_LEN + p.csum_offset,
                skip_words: (HIPPI_HEADER_LEN + IPV4_HEADER_LEN) / 4 + p.skip_words,
            });

            // --- Retransmission fast path (§4.3): data already outboard,
            // re-DMA only a fresh header and reuse the saved body checksum.
            if meta.retransmit && data_len > 0 {
                let descs: Vec<_> = transport.iter().collect();
                if descs.len() == 2 {
                    if let MbufData::Wcab(d) = descs[1].data() {
                        let packet = PacketId(d.packet);
                        let geom_ok = cab.tx_hdr_len.get(&packet).copied() == Some(d.off)
                            && cab
                                .cab
                                .netmem()
                                .get(packet)
                                .map(|p| p.cap == d.off + d.len)
                                .unwrap_or(false)
                            && d.cab == iface_id.0;
                        if geom_ok {
                            // Assemble the fresh header in the kernel's
                            // scratch buffer: no intermediate chain or
                            // flatten allocation, and the buffer's capacity
                            // is recycled across segments.
                            let mut header = std::mem::take(&mut k.scratch);
                            header.clear();
                            header.extend_from_slice(&hippi.build());
                            header.extend_from_slice(&ip_bytes);
                            let at = header.len();
                            header.resize(at + thdr_len, 0);
                            transport.copy_kernel_out(0, &mut header[at..]);
                            let hdr_bytes = Bytes::copy_from_slice(&header);
                            k.scratch = header;
                            let token = cab.issue(SdmaPurpose::TxPlain);
                            let req = SdmaTx {
                                packet,
                                sg: vec![SgEntry::Inline(hdr_bytes)],
                                csum: spec,
                                reuse_body_csum: true,
                                interrupt_on_complete: false,
                                token,
                            };
                            match cab.cab.sdma_tx(req, now, mem) {
                                Ok(ev) => {
                                    let sdma_done = ev.at();
                                    if k.spans.on() {
                                        k.spans.span(
                                            meta.flow,
                                            Stage::Sdma,
                                            now,
                                            sdma_done,
                                            full_hdr_len as u64,
                                        );
                                        if spec.is_some() {
                                            k.spans.span(
                                                meta.flow,
                                                Stage::Checksum,
                                                now,
                                                sdma_done,
                                                data_len as u64,
                                            );
                                        }
                                    }
                                    k.fx.push(Effect::Cab {
                                        iface: iface_id,
                                        event: ev,
                                    });
                                    match cab
                                        .cab
                                        .mdma_tx(packet, hippi_dst, channel, sdma_done, false)
                                    {
                                        Ok(ev) => {
                                            if k.spans.on() {
                                                k.spans.span(
                                                    meta.flow,
                                                    Stage::MdmaTx,
                                                    sdma_done,
                                                    ev.at(),
                                                    frame_len as u64,
                                                );
                                            }
                                            k.fx.push(Effect::Cab {
                                                iface: iface_id,
                                                event: ev,
                                            })
                                        }
                                        Err(e) => {
                                            // The header is refreshed; only
                                            // the media transfer is parked.
                                            Kernel::watchdog_on_wedge(k, cab, iface_id, &e);
                                            Kernel::park_tx(
                                                k,
                                                cab,
                                                iface_id,
                                                PendingTx::Mdma {
                                                    packet,
                                                    dst: hippi_dst,
                                                    channel,
                                                    free_after: false,
                                                },
                                                now,
                                            );
                                        }
                                    }
                                    k.stats.retransmit_header_only += 1;
                                    return;
                                }
                                Err(e) => {
                                    // Fall through to the slow path, which
                                    // rebuilds the whole frame.
                                    cab.complete(token);
                                    Kernel::watchdog_on_wedge(k, cab, iface_id, &e);
                                }
                            }
                        }
                    }
                }
                k.stats.retransmit_slow_path += 1;
            }

            // --- Normal path: gather everything, then allocate and DMA.
            // The frame header is assembled in the recycled scratch buffer
            // (restored right after it is frozen into `Bytes` below).
            let mut header = std::mem::take(&mut k.scratch);
            header.clear();
            header.extend_from_slice(&hippi.build());
            header.extend_from_slice(&ip_bytes);
            let mut sg: Vec<SgEntry> = Vec::new();
            let mut uio_bytes = 0usize;
            let mut pinned: Option<(outboard_host::TaskId, u64, usize)> = None;
            let mut first_kernel = true;
            for m in transport.iter() {
                match m.data() {
                    MbufData::Kernel(b) => {
                        if first_kernel {
                            header.extend_from_slice(b);
                            first_kernel = false;
                        } else {
                            sg.push(SgEntry::Inline(b.clone()));
                        }
                    }
                    MbufData::Uio(d) => {
                        first_kernel = false;
                        if d.vaddr() % 4 != 0 {
                            // §4.5: the device cannot DMA from an unaligned
                            // start address; fall back to a kernel copy for
                            // this entry ("the traditional path is used for
                            // unaligned accesses").
                            use outboard_host::UserMemory;
                            k.stats.aligned_fallbacks += 1;
                            let mut buf = vec![0u8; d.len];
                            if mem.read_user(d.region.task, d.vaddr(), &mut buf).is_err() {
                                k.stats.user_mem_faults += 1;
                            }
                            let cost = k.memsys.copy_cost(d.len, d.len.max(4096));
                            k.cpu_dur(cost, Charge::Syscall);
                            // The bytes are copied, so the write's counter
                            // can be credited as if DMAed (the completion
                            // handler will find no UIO descriptor to
                            // convert, so credit here).
                            uio_bytes += d.len;
                            sg.push(SgEntry::Inline(Bytes::from(buf)));
                        } else {
                            uio_bytes += d.len;
                            match &mut pinned {
                                None => pinned = Some((d.region.task, d.vaddr(), d.len)),
                                Some((_, _, l)) => *l += d.len,
                            }
                            sg.push(SgEntry::User {
                                task: d.region.task,
                                vaddr: d.vaddr(),
                                len: d.len,
                            });
                        }
                    }
                    MbufData::Wcab(d) => {
                        // Cross-packet retransmit slice: resolve outboard
                        // bytes through the driver (rare; a CPU read). Zeros
                        // on a lost buffer; the peer's checksum rejects.
                        first_kernel = false;
                        let mut buf = vec![0u8; d.len];
                        let _ = cab.cab.read_packet(PacketId(d.packet), d.off, &mut buf);
                        let cost = k.memsys.read_cost(d.len, d.len.max(4096));
                        k.cpu_dur(cost, Charge::Syscall);
                        sg.push(SgEntry::Inline(Bytes::from(buf)));
                    }
                }
            }
            sg.insert(0, SgEntry::Inline(Bytes::copy_from_slice(&header)));
            k.scratch = header;
            let mut purpose = match (uio_bytes > 0, meta.sock) {
                (true, Some(sock)) => SdmaPurpose::TxSegment {
                    sock,
                    seq_lo: meta.seq_lo,
                    data_len,
                    // Placeholder until a packet is allocated (the parked
                    // retry path allocates afresh each round).
                    packet: PacketId(0),
                    hdr_len: full_hdr_len,
                    pinned,
                },
                _ => SdmaPurpose::TxPlain,
            };
            let Some(packet) = cab.cab.alloc_packet(frame_len) else {
                // Out of network memory — the paper's "transient
                // out-of-resources condition" (§4.4.3): park the gathered
                // request and retry with backoff instead of dropping.
                k.stats.tx_nomem_drops += 1;
                Kernel::park_tx(
                    k,
                    cab,
                    iface_id,
                    PendingTx::Sdma {
                        frame_len,
                        sg,
                        csum: spec,
                        dst: hippi_dst,
                        channel,
                        purpose,
                        free_after_mdma: meta.free_after_mdma,
                        data_len,
                        hdr_len: full_hdr_len,
                    },
                    now,
                );
                return;
            };
            if let SdmaPurpose::TxSegment { packet: p, .. } = &mut purpose {
                *p = packet;
            }
            let token = cab.issue(purpose);
            let req = SdmaTx {
                packet,
                sg: sg.clone(),
                csum: spec,
                reuse_body_csum: false,
                interrupt_on_complete: uio_bytes > 0,
                token,
            };
            // Geometry for ACK-driven freeing and header-only retransmits.
            if !meta.free_after_mdma && data_len > 0 {
                cab.tx_remaining.insert(packet, data_len);
                cab.tx_hdr_len.insert(packet, full_hdr_len);
            }
            match cab.cab.sdma_tx(req, now, mem) {
                Ok(ev) => {
                    let sdma_done = ev.at();
                    if k.spans.on() {
                        k.spans
                            .span(meta.flow, Stage::Sdma, now, sdma_done, frame_len as u64);
                        if spec.is_some() {
                            k.spans.span(
                                meta.flow,
                                Stage::Checksum,
                                now,
                                sdma_done,
                                data_len as u64,
                            );
                        }
                    }
                    k.fx.push(Effect::Cab {
                        iface: iface_id,
                        event: ev,
                    });
                    match cab.cab.mdma_tx(
                        packet,
                        hippi_dst,
                        channel,
                        sdma_done,
                        meta.free_after_mdma,
                    ) {
                        Ok(ev) => {
                            if k.spans.on() {
                                k.spans.span(
                                    meta.flow,
                                    Stage::MdmaTx,
                                    sdma_done,
                                    ev.at(),
                                    frame_len as u64,
                                );
                            }
                            k.fx.push(Effect::Cab {
                                iface: iface_id,
                                event: ev,
                            })
                        }
                        Err(e) => {
                            // The packet is gathered outboard; only the
                            // media transfer needs a retry.
                            Kernel::watchdog_on_wedge(k, cab, iface_id, &e);
                            Kernel::park_tx(
                                k,
                                cab,
                                iface_id,
                                PendingTx::Mdma {
                                    packet,
                                    dst: hippi_dst,
                                    channel,
                                    free_after: meta.free_after_mdma,
                                },
                                now,
                            );
                        }
                    }
                }
                Err(e) => {
                    // Undo the issue and park the whole transfer. A wedged
                    // engine has seized the buffer mid-gather; the board
                    // reset reclaims it, so the host must not free it here.
                    cab.complete(token);
                    cab.tx_remaining.remove(&packet);
                    cab.tx_hdr_len.remove(&packet);
                    if !matches!(e, CabError::EngineWedged(_)) {
                        cab.cab.free_packet(packet, now);
                    }
                    Kernel::watchdog_on_wedge(k, cab, iface_id, &e);
                    Kernel::park_tx(
                        k,
                        cab,
                        iface_id,
                        PendingTx::Sdma {
                            frame_len,
                            sg,
                            csum: spec,
                            dst: hippi_dst,
                            channel,
                            purpose,
                            free_after_mdma: meta.free_after_mdma,
                            data_len,
                            hdr_len: full_hdr_len,
                        },
                        now,
                    );
                }
            }
        });
    }

    /// Ethernet output with the thin conversion layer at the driver entry
    /// (§5): UIO/WCAB chains become regular data here — "a copy has merely
    /// been delayed".
    fn eth_output(
        &mut self,
        iface_id: IfaceId,
        ip_hdr: Ipv4Header,
        transport: Chain,
        mem: &HostMem,
        _now: Time,
    ) {
        self.cpu(self.machine.cost_driver_pkt_us, Charge::Syscall);
        let flat = self.flatten_for_legacy(&transport, mem);
        // Routing only sends Ethernet-bound traffic here, but a stale route
        // table entry is a survivable error, not grounds to abort the host.
        let IfaceKind::Eth(eth) = &self.ifaces[iface_id.0 as usize].kind else {
            self.stats.ip_errors += 1;
            return;
        };
        let Some(&dst_mac) = eth.arp.get(&ip_hdr.dst) else {
            self.stats.ip_errors += 1;
            return;
        };
        let src_mac = eth.mac;
        let mut frame = Vec::with_capacity(ETHER_HEADER_LEN + IPV4_HEADER_LEN + flat.len());
        frame.extend_from_slice(&EtherHeader::new(src_mac, dst_mac).build());
        frame.extend_from_slice(&ip_hdr.build());
        frame.extend_from_slice(&flat);
        // The conventional device copies the frame over its bus.
        let copy = self.memsys.copy_cost(frame.len(), frame.len().max(4096));
        self.cpu_dur(copy, Charge::Syscall);
        self.fx.push(Effect::EthTx {
            iface: iface_id,
            frame: Bytes::from(frame),
        });
    }

    fn loop_output(
        &mut self,
        iface_id: IfaceId,
        ip_hdr: Ipv4Header,
        transport: Chain,
        mem: &HostMem,
        _now: Time,
    ) {
        let flat = self.flatten_for_legacy(&transport, mem);
        let mut frame = Vec::with_capacity(IPV4_HEADER_LEN + flat.len());
        frame.extend_from_slice(&ip_hdr.build());
        frame.extend_from_slice(&flat);
        self.fx.push(Effect::Loop {
            iface: iface_id,
            frame: Bytes::from(frame),
        });
    }

    /// Resolve a possibly-mixed chain to flat kernel bytes for a legacy
    /// device, charging the conversion copies (§5).
    pub(crate) fn flatten_for_legacy(&mut self, chain: &Chain, mem: &HostMem) -> Vec<u8> {
        use outboard_host::UserMemory;
        let mut out = Vec::with_capacity(chain.len());
        let mut uio_copied = 0usize;
        let mut wcab_copied = 0usize;
        for m in chain.iter() {
            match m.data() {
                MbufData::Kernel(b) => out.extend_from_slice(b),
                MbufData::Uio(d) => {
                    // Resolve straight into the output tail; no temporary.
                    let at = out.len();
                    out.resize(at + d.len, 0);
                    if mem
                        .read_user(d.region.task, d.vaddr(), &mut out[at..])
                        .is_err()
                    {
                        self.stats.user_mem_faults += 1;
                    }
                    uio_copied += d.len;
                }
                MbufData::Wcab(d) => {
                    let at = out.len();
                    out.resize(at + d.len, 0);
                    let iface = &self.ifaces[d.cab as usize];
                    if let IfaceKind::Cab(c) = &iface.kind {
                        let _ = c.cab.read_packet(PacketId(d.packet), d.off, &mut out[at..]);
                    }
                    wcab_copied += d.len;
                }
            }
        }
        if uio_copied > 0 {
            self.stats.uio_to_regular += 1;
            let cost = self.memsys.copy_cost(uio_copied, uio_copied.max(4096));
            self.cpu_dur(cost, Charge::Syscall);
        }
        if wcab_copied > 0 {
            self.stats.wcab_to_regular += 1;
            let cost = self.memsys.copy_cost(wcab_copied, wcab_copied.max(4096));
            self.cpu_dur(cost, Charge::Syscall);
        }
        out
    }

    /// UDP output: header + checksum strategy + IP.
    pub(crate) fn udp_output(
        &mut self,
        sock: SockId,
        local: SockAddr,
        remote: SockAddr,
        mut data: Chain,
        mem: &mut HostMem,
        now: Time,
    ) {
        self.cpu(self.machine.cost_udp_us, Charge::Syscall);
        // In-kernel applications may hand us chains whose format the CAB
        // driver cannot take; check and convert (§5).
        let owner = self.sockets.get(&sock).map(|s| s.owner);
        if owner == Some(Owner::Kernel) && data.has_wcab() {
            let flat = self.flatten_for_legacy(&data, mem);
            data = Chain::from_slice(&flat);
        }
        let hdr = UdpHeader::new(local.port, remote.port, data.len());
        self.stats.udp_datagrams_out += 1;
        let flow = if self.spans.on() {
            let group = FlowId::group_of(
                local.ip.octets(),
                local.port,
                remote.ip.octets(),
                remote.port,
            );
            FlowId::group_only(group)
        } else {
            FlowId::NONE
        };
        let meta = TxMeta {
            sock: Some(sock),
            seq_lo: 0,
            retransmit: false,
            free_after_mdma: true,
            flow,
        };
        if self.spans.on() {
            let end = now + outboard_sim::Dur::from_micros_f64(self.machine.cost_udp_us);
            self.spans
                .span(flow, Stage::KernelOutput, now, end, data.len() as u64);
        }
        self.transport_output(
            local.ip,
            remote.ip,
            proto::UDP,
            hdr.build().to_vec(),
            outboard_wire::udp::UDP_CSUM_OFFSET,
            data,
            meta,
            mem,
            now,
        );
    }

    /// Send an ICMP echo request (ping) — an in-kernel transmit path used
    /// by tests and examples.
    pub fn send_ping(
        &mut self,
        dst: Ipv4Addr,
        ident: u16,
        seq: u16,
        payload: &[u8],
        mem: &mut HostMem,
        now: Time,
    ) -> Vec<Effect> {
        let chain = crate::ip::icmp::build_echo(crate::ip::icmp::ECHO_REQUEST, ident, seq, payload);
        if let Some(iface_id) = self.routes.lookup(dst) {
            let src = self.ifaces[iface_id.0 as usize].ip;
            self.ip_output(
                src,
                dst,
                proto::ICMP,
                chain,
                iface_id,
                TxMeta::plain(),
                mem,
                now,
            );
        }
        self.take_effects()
    }

    /// ICMP echo reply — the resident in-kernel application (§5).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn icmp_reply(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ident: u16,
        seq: u16,
        payload: &[u8],
        mem: &mut HostMem,
        now: Time,
    ) {
        self.stats.icmp_echo_replies += 1;
        let chain = crate::ip::icmp::build_echo(crate::ip::icmp::ECHO_REPLY, ident, seq, payload);
        let Some(iface_id) = self.routes.lookup(dst) else {
            return;
        };
        self.ip_output(
            src,
            dst,
            proto::ICMP,
            chain,
            iface_id,
            TxMeta::plain(),
            mem,
            now,
        );
    }
}
