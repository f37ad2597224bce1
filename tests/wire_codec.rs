//! The wire codec on its own: the sans-I/O frame decoder fed every
//! way a stream can be cut, the one-write frame encoder, the blocking
//! `FrameReader` pump over it, the trace context a client puts on its
//! frames, and mutated payloads that must never panic the payload
//! decoders or the engine behind them.

mod common;

use beyond_bloom::service::engine::{dispatch, Engine};
use beyond_bloom::service::proto::{
    write_frame, write_frame_traced, FrameDecodeError, FrameDecoder, FrameError, FrameEvent,
    FrameReader, FLAG_TRACE,
};
use beyond_bloom::service::{
    Backend, ErrorCode, FilterClient, Request, Response, ServerConfig, DEFAULT_MAX_FRAME,
};
use beyond_bloom::telemetry::trace::{self, SpanRecord, Trace, TraceContext, FLAG_FORCED};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::time::Duration;

type Decoded = (Vec<u8>, Option<TraceContext>);

fn frame(payload: &[u8], ctx: Option<&TraceContext>) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame_traced(&mut wire, payload, ctx).expect("write to a Vec");
    wire
}

/// Feed `chunks` in order, draining every complete frame after each.
/// Returns the frames, the error that ended the stream if any, and the
/// decoder.
fn decode(
    chunks: &[&[u8]],
    max_frame: u32,
) -> (Vec<Decoded>, Option<FrameDecodeError>, FrameDecoder) {
    let mut d = FrameDecoder::new(max_frame);
    let mut frames = Vec::new();
    for chunk in chunks {
        let mut rest = *chunk;
        while !rest.is_empty() {
            let spare = d.spare();
            let n = spare.len().min(rest.len());
            spare[..n].copy_from_slice(&rest[..n]);
            d.filled(n);
            rest = &rest[n..];
            loop {
                match d.next_frame() {
                    Ok(Some(f)) => frames.push((f.payload.to_vec(), f.ctx)),
                    Ok(None) => break,
                    Err(e) => return (frames, Some(e), d),
                }
            }
        }
    }
    (frames, None, d)
}

/// A random stream: traced and untraced frames whose counted bodies
/// include the edge lengths 0, 1 and `max`, then, in some streams, one
/// of the two bad prefixes with part of its body.
fn random_stream(rng: &mut StdRng, max: u32) -> (Vec<u8>, Vec<Decoded>, Option<FrameDecodeError>) {
    let ctx_len = TraceContext::WIRE_LEN as u32;
    let mut wire = Vec::new();
    let mut want = Vec::new();
    for _ in 0..rng.gen_range(0..8usize) {
        let ctx = rng.gen_bool(0.5).then(|| TraceContext {
            trace_id: rng.gen(),
            span_id: rng.gen(),
            flags: rng.gen(),
        });
        let least = if ctx.is_some() { ctx_len } else { 0 };
        let counted = match rng.gen_range(0..4u32) {
            0 => least,
            1 => least + 1,
            2 => max,
            _ => rng.gen_range(least..=max),
        };
        let payload: Vec<u8> = (0..counted - least).map(|_| rng.gen()).collect();
        wire.extend(frame(&payload, ctx.as_ref()));
        want.push((payload, ctx));
    }
    let bad = match rng.gen_range(0..3u32) {
        0 => None,
        1 => {
            let traced = if rng.gen_bool(0.5) { FLAG_TRACE } else { 0 };
            wire.extend_from_slice(&((max + 1) | traced).to_le_bytes());
            Some(FrameDecodeError::Oversized(max + 1, max))
        }
        _ => {
            let len = rng.gen_range(0..ctx_len);
            wire.extend_from_slice(&(len | FLAG_TRACE).to_le_bytes());
            Some(FrameDecodeError::ShortTraceContext)
        }
    };
    if bad.is_some() {
        let tail = rng.gen_range(0..=max as usize);
        wire.extend((0..tail).map(|_| rng.gen::<u8>()));
    }
    (wire, want, bad)
}

#[test]
fn decoder_yields_exactly_the_encoded_frames_however_the_stream_is_cut() {
    const MAX: u32 = 40;
    let mut rng = StdRng::seed_from_u64(0xc0dec);
    for _ in 0..200 {
        let (wire, want, bad) = random_stream(&mut rng, MAX);
        let check = |chunks: &[&[u8]]| {
            let (got, err, mut d) = decode(chunks, MAX);
            assert_eq!(
                got,
                want,
                "frames differ for cuts {:?}",
                chunks.iter().map(|c| c.len()).collect::<Vec<_>>()
            );
            assert_eq!(err, bad);
            match bad {
                // Every later call repeats the error.
                Some(e) => assert_eq!(d.next_frame(), Err(e)),
                None => assert_eq!(d.buffered(), 0),
            }
        };
        for split in 0..=wire.len() {
            let (a, b) = wire.split_at(split);
            check(&[a, b]);
        }
        for _ in 0..20 {
            let mut chunks = Vec::new();
            let mut rest = &wire[..];
            while !rest.is_empty() {
                let (c, r) = rest.split_at(rng.gen_range(1..=rest.len().min(24)));
                chunks.push(c);
                rest = r;
            }
            check(&chunks);
        }
    }
}

#[test]
fn bad_prefixes_are_refused_before_their_body_is_buffered() {
    // An all-ones word reads as the trace flag plus 2^31 - 1 body
    // bytes; the reported length is the masked one.
    for (word, err) in [
        (
            u32::MAX,
            FrameDecodeError::Oversized(!FLAG_TRACE, DEFAULT_MAX_FRAME),
        ),
        (
            DEFAULT_MAX_FRAME + 1,
            FrameDecodeError::Oversized(DEFAULT_MAX_FRAME + 1, DEFAULT_MAX_FRAME),
        ),
        (FLAG_TRACE | 5, FrameDecodeError::ShortTraceContext),
    ] {
        let (frames, got, mut d) = decode(&[&word.to_le_bytes(), &[0u8; 16]], DEFAULT_MAX_FRAME);
        assert!(frames.is_empty());
        assert_eq!(got, Some(err));
        assert_eq!(
            err.to_string().contains("exceeds limit"),
            matches!(err, FrameDecodeError::Oversized(..))
        );
        assert!(
            d.buffered() + d.spare().len() < 1 << 20,
            "{word:#x} reserved its body"
        );
    }
    // A legal but long announcement reserves room as bytes arrive,
    // not the whole announced length up front.
    let (_, err, mut d) = decode(
        &[&DEFAULT_MAX_FRAME.to_le_bytes(), &[0u8; 16]],
        DEFAULT_MAX_FRAME,
    );
    assert_eq!(err, None);
    assert!(d.spare().len() < 1 << 20);
}

/// Counts the `write` calls that reach it.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_frame_leaves_in_one_write() {
    let ctx = TraceContext {
        trace_id: 0xdead_beef_0bad_cafe,
        span_id: 0x1234_5678_9abc_def0,
        flags: FLAG_FORCED,
    };
    for payload in [
        Vec::new(),
        vec![7],
        Request::Stats.encode(),
        vec![0xab; 100_000],
    ] {
        let mut plain = CountingWriter::default();
        write_frame(&mut plain, &payload).unwrap();
        assert_eq!(plain.writes, 1, "write_frame");
        let mut untraced = CountingWriter::default();
        write_frame_traced(&mut untraced, &payload, None).unwrap();
        assert_eq!(untraced.writes, 1, "write_frame_traced without a context");
        // An untraced frame adds zero wire bytes.
        assert_eq!(untraced.bytes, plain.bytes);
        let mut traced = CountingWriter::default();
        write_frame_traced(&mut traced, &payload, Some(&ctx)).unwrap();
        assert_eq!(traced.writes, 1, "write_frame_traced with a context");
        // A traced frame is the context longer and flags its length.
        assert_eq!(
            traced.bytes.len(),
            plain.bytes.len() + TraceContext::WIRE_LEN
        );
        let word = u32::from_le_bytes(traced.bytes[..4].try_into().unwrap());
        assert_ne!(word & FLAG_TRACE, 0);
        let (frames, err, _) = decode(&[&traced.bytes, &plain.bytes], DEFAULT_MAX_FRAME);
        assert_eq!(err, None);
        assert_eq!(frames, [(payload.clone(), Some(ctx)), (payload, None)]);
    }
}

/// Hands out its bytes one per `read` call, then EOF.
struct OneByte(Vec<u8>, usize);

impl Read for OneByte {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(&b) = self.0.get(self.1) else {
            return Ok(0);
        };
        buf[0] = b;
        self.1 += 1;
        Ok(1)
    }
}

#[test]
fn frame_reader_reassembles_byte_reads_and_reports_each_failure() {
    let payload = Request::Stats.encode();
    let ctx = TraceContext {
        trace_id: 1,
        span_id: 2,
        flags: 0,
    };
    let mut wire = frame(&payload, Some(&ctx));
    wire.extend(frame(&payload, None));
    let mut fr = FrameReader::new(OneByte(wire.clone(), 0), DEFAULT_MAX_FRAME);
    for want in [Some(ctx), None] {
        match fr.read_frame().unwrap() {
            FrameEvent::Frame(p, got) => assert_eq!((p, got), (payload.clone(), want)),
            FrameEvent::Closed => panic!("premature close"),
        }
    }
    assert!(matches!(fr.read_frame().unwrap(), FrameEvent::Closed));

    // EOF mid-frame: the peer died mid-write.
    wire.truncate(wire.len() - 3);
    let mut fr = FrameReader::new(&wire[..], DEFAULT_MAX_FRAME);
    assert!(matches!(fr.read_frame(), Ok(FrameEvent::Frame(..))));
    assert!(matches!(fr.read_frame(), Err(FrameError::Disconnected)));

    let refused = |wire: &[u8], max: u32| match FrameReader::new(wire, max).read_frame() {
        Err(FrameError::Refused(e)) => e,
        other => panic!("expected a refusal, got {other:?}"),
    };
    assert_eq!(
        refused(&u32::MAX.to_le_bytes(), 1024),
        FrameDecodeError::Oversized(!FLAG_TRACE, 1024)
    );
    assert_eq!(
        refused(&2048u32.to_le_bytes(), 1024),
        FrameDecodeError::Oversized(2048, 1024)
    );
    let short = [(5u32 | FLAG_TRACE).to_le_bytes(), [0; 4]].concat();
    assert_eq!(
        refused(&short, DEFAULT_MAX_FRAME),
        FrameDecodeError::ShortTraceContext
    );
}

/// A client puts the calling thread's trace context on every frame: none
/// before a root opens, the root's trace with the forced flag under
/// it, none again once it closes.
#[test]
fn client_frames_carry_the_threads_trace_context() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    // A fake server: records each frame's context and answers Ok.
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut frames = FrameReader::new(stream.try_clone().expect("clone"), DEFAULT_MAX_FRAME);
        let mut contexts = Vec::new();
        while let FrameEvent::Frame(_, ctx) = frames.read_frame().expect("read a frame") {
            contexts.push(ctx);
            write_frame(&mut stream, &Response::Ok.encode()).expect("answer");
        }
        contexts
    });
    let mut client = FilterClient::connect(addr).expect("connect");
    let mut stats = || assert_eq!(client.call(&Request::Stats).expect("call"), Response::Ok);
    stats();
    let root = trace::begin_forced("test:root");
    let trace_id = root.trace_id();
    assert_ne!(trace_id, 0);
    stats();
    root.finish(Duration::ZERO, false, false);
    stats();
    drop(client);

    let contexts = fake.join().expect("fake server");
    assert_eq!(contexts.len(), 3);
    assert_eq!(contexts[0], None, "a call before the root is untraced");
    let under = contexts[1].expect("a call under a root carries its context");
    assert_eq!(under.trace_id, trace_id);
    assert!(under.forced(), "a forced root forwards the forced flag");
    assert_eq!(
        contexts[2], None,
        "a call after the root closes is untraced"
    );
    trace::store().take(trace_id);
}

/// [`common::mutants`] of `bytes`, plus every truncation.
fn mutants(bytes: &[u8], random: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut out = common::mutants(bytes, random, rng);
    out.extend((0..bytes.len()).map(|cut| bytes[..cut].to_vec()));
    out
}

#[test]
fn mutated_payloads_never_panic_the_decoders_or_dispatch() {
    let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
    // Small enough that no mutated CREATE can allocate much.
    let config = || ServerConfig {
        max_capacity: 1 << 12,
        ..ServerConfig::default()
    };
    let backends = [
        Backend::AtomicBloom,
        Backend::ShardedCuckoo,
        Backend::ShardedCqf,
        Backend::RegisterBloom,
        Backend::Compacting,
        Backend::TwoChoiceBloom,
    ];
    let engine_with_filters = || {
        let engine = Engine::new(config());
        for (i, &backend) in backends.iter().enumerate() {
            let name = format!("f{i}");
            let create = Request::Create {
                name: name.clone(),
                backend,
                capacity: 1_000,
                eps: 0.01,
                shard_bits: 1,
                seed: i as u64,
                blob: Vec::new(),
            };
            assert_eq!(dispatch(&engine, &create.encode()).0, Response::Ok);
            let insert = Request::Insert {
                name,
                keys: (0..100).collect(),
            };
            assert_eq!(dispatch(&engine, &insert.encode()).0, Response::Ok);
        }
        engine
    };
    let keys = vec![0, 42, u64::MAX];
    let name = || "f2".to_string();
    let requests = vec![
        Request::Create {
            name: "new".into(),
            backend: Backend::ShardedCuckoo,
            capacity: 1_000,
            eps: 0.01,
            shard_bits: 2,
            seed: 7,
            blob: Vec::new(),
        },
        Request::Create {
            name: "blob".into(),
            backend: Backend::ShardedCqf,
            capacity: 0,
            eps: 0.0,
            shard_bits: 0,
            seed: 0,
            blob: vec![0x0c, 0xb1, 0xed, 0x5a, 1, 0, 0, 0],
        },
        Request::Insert {
            name: name(),
            keys: keys.clone(),
        },
        Request::Contains {
            name: name(),
            keys: keys.clone(),
        },
        Request::Count {
            name: name(),
            keys: keys.clone(),
        },
        Request::Delete {
            name: name(),
            keys: keys.clone(),
        },
        Request::Stats,
        Request::Metrics,
        Request::Snapshot { name: name() },
        Request::Forget { name: name() },
        Request::MultiContains { keys },
        Request::Traces { trace_id: 0 },
        Request::Traces {
            trace_id: 0x5eed_7ace,
        },
    ];
    for req in &requests {
        let engine = engine_with_filters();
        let good = req.encode();
        assert_eq!(Request::decode(&good).unwrap().unwrap(), *req);
        for m in mutants(&good, 300, &mut rng) {
            // `dispatch` decodes first; an undecodable payload must
            // come back as an error response.
            let (resp, _) = dispatch(&engine, &m);
            if Request::decode(&m).is_err() {
                assert!(matches!(
                    resp,
                    Response::Error {
                        code: ErrorCode::BadFrame | ErrorCode::UnsupportedVersion,
                        ..
                    }
                ));
            }
        }
    }

    let span = |i: u64| SpanRecord {
        trace_id: 7,
        span_id: i,
        parent_id: i.saturating_sub(1),
        link_id: 0,
        name: format!("span-{i}").into(),
        start_us: 1_000 + i,
        dur_us: 10 * i,
        pid: 42,
        tid: i,
        a: i,
        b: 2 * i,
    };
    let Response::Stats(report) = dispatch(&engine_with_filters(), &Request::Stats.encode()).0
    else {
        panic!("STATS failed");
    };
    let responses = vec![
        Response::Ok,
        Response::Bools((0..70).map(|i| i % 3 == 0).collect()),
        Response::Counts(vec![0, 1, u64::MAX]),
        Response::Stats(report),
        Response::Text("# HELP x y\nx 1\n".into()),
        Response::Blob {
            backend: Backend::Compacting,
            bytes: vec![0xde, 0xad, 0xbe, 0xef],
        },
        Response::Error {
            code: ErrorCode::NoSuchFilter,
            message: "no filter named 'x'".into(),
        },
        Response::NameLists(vec![
            vec!["a".into(), "bb".into()],
            vec![],
            vec!["zz".into()],
        ]),
        Response::Traces(vec![Trace {
            trace_id: 7,
            spans: vec![span(1), span(2)],
        }]),
    ];
    for resp in &responses {
        let good = resp.encode();
        assert_eq!(Response::decode(&good).unwrap(), *resp);
        for m in mutants(&good, 300, &mut rng) {
            let _ = Response::decode(&m);
        }
    }

    // A mutated trace context rides a traced frame into the decoder
    // and the request it carries into dispatch.
    let engine = engine_with_filters();
    let ctx = TraceContext {
        trace_id: 0x0123_4567_89ab_cdef,
        span_id: 0xfedc_ba98_7654_3210,
        flags: FLAG_FORCED,
    };
    let payload = Request::Contains {
        name: name(),
        keys: vec![1, 2, 3],
    }
    .encode();
    for m in mutants(&ctx.encode(), 100, &mut rng) {
        let _ = TraceContext::decode(&m);
        let mut wire = ((m.len() + payload.len()) as u32 | FLAG_TRACE)
            .to_le_bytes()
            .to_vec();
        wire.extend_from_slice(&m);
        wire.extend_from_slice(&payload);
        // The payload alone covers a context's length, so a truncated
        // context shifts payload bytes into it instead of failing.
        let (frames, err, _) = decode(&[&wire], DEFAULT_MAX_FRAME);
        assert_eq!((frames.len(), err), (1, None));
        let _ = dispatch(&engine, &frames[0].0);
    }
}
