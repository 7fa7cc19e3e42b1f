//! The calibration bench behind the `work` cost constants: what one
//! header inspection, one SHA-256, one Schnorr sign, and one verify
//! actually cost on this machine (F3's micro-level companion).

use arpshield_testkit::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use arpshield_crypto::{hmac_sha256, sha256, Akd, KeyPair};
use arpshield_packet::{ArpPacket, EthernetEmit, EthernetView, Ipv4Addr, MacAddr, WireEmit};

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("sarp_crypto");

    // The baseline everything is normalized to: parse one ARP frame.
    let arp = ArpPacket::request(
        MacAddr::from_index(1),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
    );
    let frame = EthernetEmit::new(
        MacAddr::BROADCAST,
        MacAddr::from_index(1),
        arpshield_packet::EtherType::ARP,
        &arp,
    )
    .encode();
    group.bench_function("baseline_inspect_arp", |b| {
        b.iter(|| {
            let eth = EthernetView::parse_strict(black_box(&frame)).unwrap();
            ArpPacket::parse(eth.payload()).unwrap()
        })
    });

    let msg = b"10.0.0.1 is-at 02:00:00:00:00:64 @ t=123456789";
    group.throughput(Throughput::Bytes(msg.len() as u64));
    group.bench_function("sha256_short", |b| b.iter(|| sha256(black_box(msg))));
    group.bench_function("hmac_sha256_short", |b| b.iter(|| hmac_sha256(b"key", black_box(msg))));

    let kp = KeyPair::from_seed(42);
    group.bench_function("schnorr_sign", |b| b.iter(|| kp.sign(black_box(msg))));

    let sig = kp.sign(msg);
    let pk = kp.public_key();
    group.bench_function("schnorr_verify", |b| {
        b.iter(|| pk.verify(black_box(msg), black_box(&sig)).unwrap())
    });

    let mut akd = Akd::new();
    for i in 0..1000u32 {
        akd.register(i, KeyPair::from_seed(u64::from(i)).public_key());
    }
    group.bench_function("akd_lookup_1000", |b| b.iter(|| akd.lookup(black_box(512)).unwrap()));

    group.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
