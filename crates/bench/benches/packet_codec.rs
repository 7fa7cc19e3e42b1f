//! Throughput of the wire-format codecs every monitor runs per packet:
//! one parse row and one in-place emit row per format.

use arpshield_testkit::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use arpshield_packet::{
    ArpPacket, DhcpMessage, EtherType, EthernetEmit, EthernetView, IpProtocol, Ipv4Addr,
    Ipv4Packet, MacAddr, UdpDatagram, WireEmit,
};

const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Receive side: every parse borrows its payload from the input buffer.
fn bench_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_codec");

    let arp = ArpPacket::request(MacAddr::from_index(1), SRC, DST);
    let arp_bytes =
        EthernetEmit::new(MacAddr::BROADCAST, MacAddr::from_index(1), EtherType::ARP, &arp)
            .encode();
    group.throughput(Throughput::Bytes(arp_bytes.len() as u64));
    group.bench_function("parse_eth_arp", |b| {
        b.iter(|| {
            let eth = EthernetView::parse_strict(black_box(&arp_bytes)).unwrap();
            ArpPacket::parse(eth.payload()).unwrap()
        })
    });

    let payload = [0xab_u8; 256];
    let dgram = UdpDatagram::new(40_000, 7, SRC, DST, payload.as_slice());
    let pkt = Ipv4Packet::new(SRC, DST, IpProtocol::Udp, &dgram);
    let udp_bytes =
        EthernetEmit::new(MacAddr::from_index(2), MacAddr::from_index(1), EtherType::Ipv4, &pkt)
            .encode();
    group.throughput(Throughput::Bytes(udp_bytes.len() as u64));
    group.bench_function("parse_eth_ipv4_udp", |b| {
        b.iter(|| {
            let eth = EthernetView::parse_strict(black_box(&udp_bytes)).unwrap();
            let pkt = Ipv4Packet::parse(eth.payload()).unwrap();
            UdpDatagram::parse(pkt.payload, pkt.src, pkt.dst).unwrap().dst_port
        })
    });

    let dhcp = DhcpMessage::discover(7, MacAddr::from_index(9)).encode();
    group.throughput(Throughput::Bytes(dhcp.len() as u64));
    // The parse validates every option in place; reading the message
    // type walks them again, as a snooping switch does.
    group.bench_function("parse_dhcp_discover", |b| {
        b.iter(|| DhcpMessage::parse(black_box(&dhcp)).unwrap().message_type())
    });

    group.finish();
}

/// Transmit side: each emitter writes one pass into a caller-provided
/// buffer, as TX sites do into recycled frame-pool buffers.
fn bench_encode_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_encode");

    let arp = ArpPacket::request(MacAddr::from_index(1), SRC, DST);
    let arp_emit =
        EthernetEmit::new(MacAddr::BROADCAST, MacAddr::from_index(1), EtherType::ARP, &arp);
    let arp_len = arp_emit.wire_len();
    group.throughput(Throughput::Bytes(arp_len as u64));
    let mut buf = vec![0u8; arp_len];
    group.bench_function("eth_arp/in_place", |b| {
        b.iter(|| black_box(&arp_emit).emit(black_box(&mut buf)))
    });

    let payload = [0xab_u8; 256];
    let dgram = UdpDatagram::new(40_000, 7, SRC, DST, payload.as_slice());
    let pkt = Ipv4Packet::new(SRC, DST, IpProtocol::Udp, &dgram);
    let frame_emit =
        EthernetEmit::new(MacAddr::from_index(2), MacAddr::from_index(1), EtherType::Ipv4, &pkt);
    let udp_len = frame_emit.wire_len();
    group.throughput(Throughput::Bytes(udp_len as u64));
    let mut buf = vec![0u8; udp_len];
    group.bench_function("eth_ipv4_udp/in_place", |b| {
        b.iter(|| black_box(&frame_emit).emit(black_box(&mut buf)))
    });

    let dhcp = DhcpMessage::discover(7, MacAddr::from_index(9));
    let dhcp_len = dhcp.wire_len();
    group.throughput(Throughput::Bytes(dhcp_len as u64));
    let mut buf = vec![0u8; dhcp_len];
    group.bench_function("dhcp_discover/in_place", |b| {
        b.iter(|| black_box(&dhcp).emit(black_box(&mut buf)))
    });

    group.finish();
}

criterion_group!(benches, bench_codecs, bench_encode_paths);
criterion_main!(benches);
