//! Wire-protocol tests for the fleet service.
//!
//! The frame layer must round-trip every command and response variant,
//! survive hostile input (truncated frames, corrupt payloads, absurd
//! length prefixes) without panicking, and refuse version-mismatched
//! workers with a typed error rather than a parse failure. Chunk-size
//! independence of the incremental decoder is pinned by a proptest fuzz
//! that re-slices encoded streams at random frame boundaries.

use std::io::Cursor;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use fic::fleet::wire::{
    decode_payload, encode_frame, read_frame, write_frame, Command, FrameBuffer, FrameError,
    RefusalKind, Response, SliceLease, MAX_FRAME_LEN, WIRE_VERSION,
};
use fic::fleet::{CampaignSpec, Server, ServerOptions};
use fic::journal::{CampaignKind, TrialRecord};
use fic::telemetry::{Registry, TelemetrySnapshot};
use fic::{Protocol, Trial};
use proptest::prelude::*;

fn sample_trial(detected_at: Option<u64>) -> Trial {
    let mut per_ea_first_ms = [None; 7];
    if let Some(at) = detected_at {
        per_ea_first_ms[2] = Some(at);
    }
    Trial {
        failed: detected_at.is_none(),
        per_ea_first_ms,
        first_injection_ms: 20,
        final_distance_m: 187.5,
    }
}

fn sample_telemetry() -> TelemetrySnapshot {
    let registry = Registry::new();
    registry.counter("campaign.trials").add(3);
    registry.gauge("campaign.workers").set(2);
    registry.snapshot()
}

fn sample_lease() -> SliceLease {
    SliceLease {
        slice_id: 17,
        campaign: "smoke".to_owned(),
        kind: CampaignKind::E2,
        protocol: Protocol::scaled(2, 1_500),
        case_index: 3,
        error_numbers: vec![4, 9, 200],
    }
}

fn all_commands() -> Vec<Command> {
    vec![
        Command::Register {
            wire_version: WIRE_VERSION,
            worker: "w-1".to_owned(),
        },
        Command::LeaseRequest { worker_id: 1 },
        Command::Heartbeat {
            worker_id: 1,
            slice_id: 17,
        },
        Command::SliceResult {
            worker_id: 1,
            slice_id: 17,
            records: vec![
                TrialRecord {
                    campaign: CampaignKind::E1,
                    error_number: 12,
                    case_index: 3,
                    trial: sample_trial(Some(140)),
                },
                TrialRecord {
                    campaign: CampaignKind::E1,
                    error_number: 13,
                    case_index: 3,
                    trial: sample_trial(None),
                },
            ],
            telemetry: sample_telemetry(),
        },
        Command::Shutdown { worker_id: 1 },
    ]
}

fn all_responses() -> Vec<Response> {
    vec![
        Response::Registered {
            worker_id: 1,
            lease_ms: 30_000,
        },
        Response::Lease {
            slice: sample_lease(),
        },
        Response::NoWork { done: false },
        Response::NoWork { done: true },
        Response::ResultAck { accepted: true },
        Response::ResultAck { accepted: false },
        Response::Refused {
            kind: RefusalKind::VersionMismatch,
            message: "worker speaks wire version 0".to_owned(),
        },
        Response::Refused {
            kind: RefusalKind::UnknownWorker,
            message: "who?".to_owned(),
        },
        Response::Refused {
            kind: RefusalKind::UnknownSlice,
            message: "what?".to_owned(),
        },
        Response::Refused {
            kind: RefusalKind::Malformed,
            message: "first command must be Register".to_owned(),
        },
    ]
}

#[test]
fn every_command_round_trips() {
    for command in all_commands() {
        let frame = encode_frame(&command);
        let decoded: Command = decode_payload(&frame[4..]).unwrap();
        assert_eq!(decoded, command);

        let mut cursor = Cursor::new(frame);
        let read: Command = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(read, command);
        // The stream ends cleanly on the frame boundary.
        assert!(read_frame::<_, Command>(&mut cursor).unwrap().is_none());
    }
}

#[test]
fn every_response_round_trips() {
    for response in all_responses() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &response).unwrap();
        let mut cursor = Cursor::new(stream);
        let read: Response = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(read, response);
    }
}

#[test]
fn truncated_frames_are_typed_errors_not_panics() {
    let frame = encode_frame(&Command::LeaseRequest { worker_id: 9 });
    // Every proper prefix of the frame (except the empty one, which is
    // a clean EOF) must surface as Truncated.
    for cut in 1..frame.len() {
        let mut cursor = Cursor::new(frame[..cut].to_vec());
        match read_frame::<_, Command>(&mut cursor) {
            Err(FrameError::Truncated) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
    let mut empty = Cursor::new(Vec::new());
    assert!(read_frame::<_, Command>(&mut empty).unwrap().is_none());
}

#[test]
fn corrupt_payloads_are_parse_errors_not_panics() {
    // Valid framing, garbage payload.
    let mut frame = Vec::new();
    let payload = b"\xff\xfe\x00 not json at all";
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    let mut cursor = Cursor::new(frame);
    match read_frame::<_, Command>(&mut cursor) {
        Err(FrameError::Parse(_)) => {}
        other => panic!("expected Parse, got {other:?}"),
    }

    // Valid JSON that is not a Command.
    let mut frame = Vec::new();
    let payload = br#"{"Unheard":{"of":1}}"#;
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    let mut cursor = Cursor::new(frame);
    match read_frame::<_, Command>(&mut cursor) {
        Err(FrameError::Parse(_)) => {}
        other => panic!("expected Parse, got {other:?}"),
    }
}

#[test]
fn oversized_prefixes_are_refused_without_allocating() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&u32::MAX.to_be_bytes());
    frame.extend_from_slice(b"doesn't matter");
    let mut cursor = Cursor::new(frame);
    match read_frame::<_, Command>(&mut cursor) {
        Err(FrameError::Oversize(len)) => assert_eq!(len, u32::MAX as usize),
        other => panic!("expected Oversize, got {other:?}"),
    }

    // The single-port design depends on ASCII "GET " decoding as an
    // oversized length — that is how HTTP clients are told apart from
    // workers. Pin it.
    let get = u32::from_be_bytes(*b"GET ") as usize;
    assert!(
        get > MAX_FRAME_LEN,
        "\"GET \" as a length prefix ({get}) must exceed MAX_FRAME_LEN ({MAX_FRAME_LEN})"
    );

    let mut buffer = FrameBuffer::new();
    buffer.extend(b"GET /status HTTP/1.1\r\n");
    match buffer.next_payload() {
        Err(FrameError::Oversize(len)) => assert_eq!(len, get),
        other => panic!("expected Oversize, got {other:?}"),
    }
}

#[test]
fn version_mismatched_worker_is_refused_with_typed_error() {
    let dir = std::env::temp_dir().join(format!("fic-fleet-wire-{}", std::process::id()));
    let options = ServerOptions {
        listen: "127.0.0.1:0".to_owned(),
        out_dir: dir.clone(),
        journal_dir: Some(dir),
        ..ServerOptions::default()
    };
    // One real (tiny) campaign so the fleet is not instantly done.
    let spec = CampaignSpec::with_limits("wire", Protocol::scaled(2, 500), 1, 0);
    let server = Server::bind(options, vec![spec]).unwrap();
    let addr = server.local_addr().unwrap();
    // Serve forever on a detached thread; the test process exits
    // without joining it.
    std::thread::spawn(move || server.run());

    // Wrong version: typed refusal, then the server closes.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &Command::Register {
            wire_version: WIRE_VERSION + 1,
            worker: "time-traveller".to_owned(),
        },
    )
    .unwrap();
    match read_frame::<_, Response>(&mut stream).unwrap().unwrap() {
        Response::Refused { kind, .. } => assert_eq!(kind, RefusalKind::VersionMismatch),
        other => panic!("expected Refused, got {other:?}"),
    }
    assert!(
        read_frame::<_, Response>(&mut stream).unwrap().is_none(),
        "the server must close a version-mismatched connection"
    );

    // A non-Register first command is also refused.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, &Command::LeaseRequest { worker_id: 1 }).unwrap();
    match read_frame::<_, Response>(&mut stream).unwrap().unwrap() {
        Response::Refused { kind, .. } => assert_eq!(kind, RefusalKind::Malformed),
        other => panic!("expected Refused, got {other:?}"),
    }

    // The right version is still welcome afterwards.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &Command::Register {
            wire_version: WIRE_VERSION,
            worker: "contemporary".to_owned(),
        },
    )
    .unwrap();
    match read_frame::<_, Response>(&mut stream).unwrap().unwrap() {
        Response::Registered { lease_ms, .. } => assert!(lease_ms > 0),
        other => panic!("expected Registered, got {other:?}"),
    }
}

/// Opens a connection and registers it as worker `name`.
fn register(addr: SocketAddr, name: &str) -> (TcpStream, u64) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &Command::Register {
            wire_version: WIRE_VERSION,
            worker: name.to_owned(),
        },
    )
    .unwrap();
    match read_frame::<_, Response>(&mut stream).unwrap().unwrap() {
        Response::Registered { worker_id, .. } => (stream, worker_id),
        other => panic!("expected Registered, got {other:?}"),
    }
}

/// A lease request that finds nothing pending is held by the server,
/// not answered with `NoWork`: when the only slice's holder
/// disconnects, the waiting worker is handed that slice at once, long
/// before the lease TTL could lapse.
#[test]
fn an_idle_lease_request_waits_for_a_released_slice() {
    let dir = std::env::temp_dir().join(format!("fic-fleet-held-{}", std::process::id()));
    let options = ServerOptions {
        listen: "127.0.0.1:0".to_owned(),
        lease_ms: 600_000,
        out_dir: dir.clone(),
        journal_dir: Some(dir),
        ..ServerOptions::default()
    };
    // One E1 error on a one-case grid: exactly one slice.
    let spec = CampaignSpec {
        name: "held".to_owned(),
        protocol: Protocol::scaled(1, 500),
        e1_numbers: vec![1],
        e2_numbers: Vec::new(),
    };
    let server = Server::bind(options, vec![spec]).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());

    let (mut holder, holder_id) = register(addr, "holder");
    write_frame(
        &mut holder,
        &Command::LeaseRequest {
            worker_id: holder_id,
        },
    )
    .unwrap();
    let Response::Lease { slice } = read_frame::<_, Response>(&mut holder).unwrap().unwrap() else {
        panic!("the only slice goes to the first asker");
    };

    let (mut waiter, waiter_id) = register(addr, "waiter");
    write_frame(
        &mut waiter,
        &Command::LeaseRequest {
            worker_id: waiter_id,
        },
    )
    .unwrap();
    // While the holder keeps its lease, no answer arrives (`peek`
    // consumes nothing, so the frame read below starts clean).
    waiter
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    assert!(
        waiter.peek(&mut [0u8; 1]).is_err(),
        "an idle lease request must be held, not answered"
    );
    waiter
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    drop(holder);
    match read_frame::<_, Response>(&mut waiter).unwrap().unwrap() {
        Response::Lease { slice: reassigned } => assert_eq!(reassigned.slice_id, slice.slice_id),
        other => panic!("expected the released slice, got {other:?}"),
    }
}

/// A holder that stays connected but never heartbeats loses its slice
/// when the lease lapses, and a request already held by the server is
/// answered with that slice as soon as it lapses, not only when the
/// held request's own wait ends one TTL after it was made.
#[test]
fn a_held_lease_request_gets_a_slice_as_soon_as_its_lease_lapses() {
    const TTL_MS: u64 = 2_000;
    let dir = std::env::temp_dir().join(format!("fic-fleet-lapse-{}", std::process::id()));
    let options = ServerOptions {
        listen: "127.0.0.1:0".to_owned(),
        lease_ms: TTL_MS,
        out_dir: dir.clone(),
        journal_dir: Some(dir),
        ..ServerOptions::default()
    };
    let spec = CampaignSpec {
        name: "lapse".to_owned(),
        protocol: Protocol::scaled(1, 500),
        e1_numbers: vec![1],
        e2_numbers: Vec::new(),
    };
    let server = Server::bind(options, vec![spec]).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());

    let (mut holder, holder_id) = register(addr, "holder");
    write_frame(
        &mut holder,
        &Command::LeaseRequest {
            worker_id: holder_id,
        },
    )
    .unwrap();
    let Response::Lease { slice } = read_frame::<_, Response>(&mut holder).unwrap().unwrap() else {
        panic!("the only slice goes to the first asker");
    };
    let leased = Instant::now();

    // Ask three quarters of a TTL later: the lease lapses a quarter
    // TTL into this request's wait.
    std::thread::sleep(Duration::from_millis(TTL_MS * 3 / 4));
    let (mut waiter, waiter_id) = register(addr, "waiter");
    waiter
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let asked = Instant::now();
    write_frame(
        &mut waiter,
        &Command::LeaseRequest {
            worker_id: waiter_id,
        },
    )
    .unwrap();
    match read_frame::<_, Response>(&mut waiter).unwrap().unwrap() {
        Response::Lease { slice: reassigned } => assert_eq!(reassigned.slice_id, slice.slice_id),
        other => panic!("expected the lapsed slice, got {other:?}"),
    }
    assert!(
        leased.elapsed() >= Duration::from_millis(TTL_MS),
        "the slice must not move before its lease lapses"
    );
    assert!(
        asked.elapsed() < Duration::from_millis(TTL_MS * 3 / 4),
        "the held request must be answered when the lease lapses, not one TTL after it was made \
         (answered after {:?})",
        asked.elapsed()
    );
    drop(holder);
}

/// A generated conversation: indices into a fixed message pool.
fn conversation_strategy() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (
        proptest::collection::vec(0u8..5, 1..8),   // which commands
        proptest::collection::vec(1u8..64, 1..32), // chunk sizes
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feeding a multi-frame stream to the incremental decoder in
    /// arbitrary chunk sizes yields exactly the encoded messages, in
    /// order, and ends on a frame boundary.
    #[test]
    fn frame_buffer_is_chunk_size_independent(spec in conversation_strategy()) {
        let (picks, chunks) = spec;
        let pool = all_commands();
        let sent: Vec<Command> = picks
            .iter()
            .map(|&i| pool[i as usize % pool.len()].clone())
            .collect();
        let stream: Vec<u8> = sent.iter().flat_map(encode_frame).collect();

        let mut buffer = FrameBuffer::new();
        let mut received: Vec<Command> = Vec::new();
        let mut offset = 0;
        let mut chunk_iter = chunks.iter().cycle();
        while offset < stream.len() {
            let take = (*chunk_iter.next().unwrap() as usize).min(stream.len() - offset);
            buffer.extend(&stream[offset..offset + take]);
            offset += take;
            while let Some(payload) = buffer.next_payload().unwrap() {
                received.push(decode_payload(&payload).unwrap());
            }
        }
        prop_assert_eq!(&received, &sent);
        prop_assert!(!buffer.mid_frame(), "clean stream must end on a boundary");
    }

    /// Truncating the stream anywhere never panics: complete frames
    /// before the cut decode, and the buffer reports a partial frame
    /// exactly when the cut is mid-frame.
    #[test]
    fn truncation_anywhere_is_detected(spec in conversation_strategy(), cut_seed in 0usize..10_000) {
        let (picks, _) = spec;
        let pool = all_commands();
        let sent: Vec<Command> = picks
            .iter()
            .map(|&i| pool[i as usize % pool.len()].clone())
            .collect();
        let stream: Vec<u8> = sent.iter().flat_map(encode_frame).collect();
        let cut = cut_seed % (stream.len() + 1);

        let mut buffer = FrameBuffer::new();
        buffer.extend(&stream[..cut]);
        let mut decoded = 0usize;
        while let Some(payload) = buffer.next_payload().unwrap() {
            let _: Command = decode_payload(&payload).unwrap();
            decoded += 1;
        }
        prop_assert!(decoded <= sent.len());
        // The cut is mid-frame iff undecoded bytes remain buffered.
        let consumed: usize = sent[..decoded].iter().map(|c| encode_frame(c).len()).sum();
        prop_assert_eq!(buffer.mid_frame(), cut != consumed);
    }
}

/// Spins a server (optionally with the flight recorder) and returns its
/// address; the serve loop runs on a detached thread.
fn spin_http_server(tag: &str, flight_recorder: bool) -> std::net::SocketAddr {
    let dir = std::env::temp_dir().join(format!("fic-fleet-http-{tag}-{}", std::process::id()));
    let options = ServerOptions {
        listen: "127.0.0.1:0".to_owned(),
        out_dir: dir.clone(),
        journal_dir: Some(dir),
        flight_recorder,
        ..ServerOptions::default()
    };
    let spec = CampaignSpec::with_limits("wire", Protocol::scaled(2, 500), 1, 0);
    let server = Server::bind(options, vec![spec]).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    addr
}

/// Issues a raw HTTP GET and returns the full response text.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: fleet\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// Pins the `/metrics` response shape: the 200 status line, the
/// Prometheus content type (scrapers dispatch on it), and an
/// exposition body that parses back into a telemetry snapshot.
#[test]
fn metrics_endpoint_serves_prometheus_exposition() {
    let addr = spin_http_server("metrics", false);
    let response = http_get(addr, "/metrics");
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    assert!(
        head.starts_with("HTTP/1.1 200 OK\r\n"),
        "status line pinned: {head}"
    );
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "Prometheus content type pinned: {head}"
    );
    let snapshot = TelemetrySnapshot::from_prometheus(body).expect("body is valid exposition");
    assert_eq!(snapshot.to_prometheus(), body, "exposition round-trips");
}

/// Pins the `/trace` response shape in both server configurations:
/// with `--flight-recorder` it is Chrome `trace_event` JSON; without,
/// a 404 naming the flag that would enable it.
#[test]
fn trace_endpoint_serves_chrome_trace_or_a_typed_404() {
    let addr = spin_http_server("trace-on", true);
    let response = http_get(addr, "/trace");
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    assert!(
        head.starts_with("HTTP/1.1 200 OK\r\n"),
        "status line pinned: {head}"
    );
    assert!(head.contains("Content-Type: application/json"));
    assert!(
        body.contains("traceEvents"),
        "Chrome trace envelope pinned: {body}"
    );

    let addr = spin_http_server("trace-off", false);
    let response = http_get(addr, "/trace");
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    assert!(
        head.starts_with("HTTP/1.1 404 Not Found\r\n"),
        "status line pinned: {head}"
    );
    assert!(
        body.contains("--flight-recorder"),
        "the 404 must name the enabling flag: {body}"
    );
}
