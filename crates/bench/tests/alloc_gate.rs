//! Allocation gate: proves the hot paths are **zero allocations per op**
//! in steady state, with a counting global allocator standing in for the
//! system one.
//!
//! Run with:
//!
//! ```text
//! cargo test -p geometa-bench --features count-alloc --test alloc_gate
//! ```
//!
//! The allocation counter is process-wide, so the three gated paths run
//! sequentially inside ONE `#[test]` — the default parallel test runner
//! would otherwise pollute each other's deltas. Each phase warms its
//! path first (interning keys, growing scratch buffers, dialing the TCP
//! connection) and only then measures: steady state is the claim, not
//! cold start.

#![cfg(feature = "count-alloc")]

use geometa_bench::count_alloc::{allocs_during, CountingAlloc};
use geometa_cache::{Key, ShardedStore};
use geometa_core::protocol::{self, RegistryRequest, RegistryResponse};
use geometa_core::runtime::{RuntimeConfig, ServiceRuntime};
use geometa_core::transport::RegistryTransport;
use geometa_core::MetaError;
use geometa_net::{transport_for, TcpLayer};
use geometa_sim::topology::SiteId;
use std::time::Duration;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Phase 1: sharded-store gets — hit and miss — by interned key.
fn gate_cache_get() {
    let store = ShardedStore::new(64);
    for i in 0..1024 {
        store
            .put(
                &format!("montage/tile_{i}.fits"),
                bytes::Bytes::from_static(b"entry"),
                0,
            )
            .unwrap();
    }
    let hot = Key::new("montage/tile_511.fits");
    let absent = Key::new("montage/absent.fits");

    // Warm: fault in whatever lazy state the shards keep.
    for _ in 0..64 {
        assert!(store.get_key(&hot).is_ok());
        assert!(store.get_key(&absent).is_err());
    }

    let (n, _) = allocs_during(|| {
        for _ in 0..4096 {
            let hit = store.get_key(&hot);
            std::hint::black_box(&hit);
            drop(hit);
            let miss = store.get_key(&absent);
            std::hint::black_box(&miss);
            drop(miss);
        }
    });
    assert_eq!(n, 0, "cache get (hit+miss) must not allocate: {n} allocs");
}

/// Phase 2: wire codec round trip into reused buffers — `encode_into`
/// plus the borrowed decode fast paths.
fn gate_codec_round_trip() {
    let req = RegistryRequest::Get {
        key: "montage/projected/tile_0042.fits".into(),
    };
    let responses = [
        RegistryResponse::Ack,
        RegistryResponse::Error {
            error: MetaError::NotFound,
        },
        RegistryResponse::Error {
            error: MetaError::WrongEpoch { epoch: 7 },
        },
    ];
    let mut buf: Vec<u8> = Vec::with_capacity(256);

    // Warm: let the buffer reach its high-water mark.
    for resp in &responses {
        buf.clear();
        req.encode_into(&mut buf);
        assert!(protocol::decode_get_key(&buf).is_some());
        buf.clear();
        resp.encode_into(&mut buf);
        assert!(protocol::decode_fixed_response(&buf).is_some());
    }

    let (n, _) = allocs_during(|| {
        for _ in 0..4096 {
            buf.clear();
            req.encode_into(&mut buf);
            let key = protocol::decode_get_key(&buf).expect("round trip");
            std::hint::black_box(key);
            for resp in &responses {
                buf.clear();
                resp.encode_into(&mut buf);
                let back = protocol::decode_fixed_response(&buf).expect("fixed decode");
                std::hint::black_box(&back);
            }
        }
    });
    assert_eq!(n, 0, "codec round trip must not allocate: {n} allocs");
}

/// Phase 3: the full loopback echo — the caller frames and flushes on
/// its own thread, the server decodes + serves + encodes, the caller
/// reads and correlates the response. The op is a `Get` of an absent
/// key: the miss path touches every wire layer but fabricates no entry,
/// so steady state must be 0 allocs/op. Then the cast path: frame into
/// the link and flush, with no response. Casts go to a sink that only
/// drains the socket, because the server owns every cast body it
/// decodes (an allocation by design, outside the client's path).
fn gate_loopback_echo() {
    let runtime = ServiceRuntime::start(RuntimeConfig::default(), TcpLayer::ephemeral());
    let mut addrs: Vec<std::net::SocketAddr> = {
        let map = runtime.layer().addrs();
        let mut pairs: Vec<_> = map.iter().map(|(s, a)| (*s, *a)).collect();
        pairs.sort_by_key(|(s, _)| *s);
        pairs.into_iter().map(|(_, a)| a).collect()
    };
    let sink = std::net::TcpListener::bind("127.0.0.1:0").expect("bind cast sink");
    let sink_site = SiteId(addrs.len() as u16);
    addrs.push(sink.local_addr().expect("sink addr"));
    // geometa-lint: allow(untracked-thread) test cast sink, joined at the end of the phase
    let drain = std::thread::spawn(move || {
        let (mut conn, _) = sink.accept().expect("accept cast link");
        let mut buf = [0u8; 64 * 1024];
        while matches!(std::io::Read::read(&mut conn, &mut buf), Ok(n) if n > 0) {}
    });
    let transport = transport_for(&addrs, Duration::from_secs(10));
    let key: Key = "montage/never-published.fits".into();

    // Warm: dial the connection, grow every ring/scratch buffer to its
    // high-water mark, populate the breaker map and the call-slot slab.
    for _ in 0..2000 {
        let resp = transport.call(SiteId(0), RegistryRequest::Get { key: key.clone() });
        assert!(matches!(
            resp,
            RegistryResponse::Error {
                error: MetaError::NotFound
            }
        ));
    }

    let ops = 5000u64;
    let (n, _) = allocs_during(|| {
        for _ in 0..ops {
            let resp = transport.call(SiteId(0), RegistryRequest::Get { key: key.clone() });
            std::hint::black_box(&resp);
        }
    });
    assert_eq!(
        n,
        0,
        "loopback echo call must not allocate in steady state: \
         {n} allocs over {ops} ops ({:.3}/op)",
        n as f64 / ops as f64
    );

    // Casts: dial the sink link and grow its buffers first; the counted
    // loop consumes requests built before it.
    let cast = || RegistryRequest::Get { key: key.clone() };
    for _ in 0..2000 {
        transport.cast(sink_site, cast());
    }
    let casts: Vec<RegistryRequest> = (0..ops).map(|_| cast()).collect();
    let (n, _) = allocs_during(|| {
        for req in casts {
            transport.cast(sink_site, req);
        }
    });
    assert_eq!(
        n,
        0,
        "cast must not allocate in steady state: {n} allocs over {ops} casts ({:.3}/cast)",
        n as f64 / ops as f64
    );
    assert_eq!(transport.casts_shed(), 0, "the sink drains every cast");

    drop(transport);
    drain.join().expect("cast sink");
    runtime.shutdown();
}

#[test]
fn zero_allocs_per_op_steady_state() {
    gate_cache_get();
    gate_codec_round_trip();
    gate_loopback_echo();
}
