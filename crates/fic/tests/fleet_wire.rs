//! Wire-protocol tests for the fleet service.
//!
//! The frame layer must round-trip every command and response variant,
//! survive hostile input (truncated frames, corrupt payloads, absurd
//! length prefixes) without panicking, and refuse version-mismatched
//! workers with a typed error rather than a parse failure. That
//! [`read_frame`] does not depend on how the transport chunks the
//! stream is pinned by a proptest fuzz that reads encoded streams
//! through a reader returning them in generated chunk sizes.

use std::io::{self, Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fic::fleet::wire::{
    decode_payload, encode_frame, read_frame, write_frame, Command, FrameError, RefusalKind,
    Response, SliceLease, WIRE_VERSION,
};
use fic::fleet::{run_worker, CampaignSpec, Server, ServerOptions, WorkerOptions};
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
    // The grant cannot come before the request is written.
    let leased = Instant::now();
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

/// A transport that returns `bytes` in the generated chunk sizes
/// (cycling), then end-of-stream.
struct Chunked<'a> {
    bytes: &'a [u8],
    chunks: std::iter::Cycle<std::slice::Iter<'a, u8>>,
}

impl<'a> Chunked<'a> {
    fn new(bytes: &'a [u8], chunks: &'a [u8]) -> Self {
        Chunked {
            bytes,
            chunks: chunks.iter().cycle(),
        }
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let chunk = usize::from(*self.chunks.next().expect("chunk sizes are never empty"));
        let take = chunk.min(buf.len()).min(self.bytes.len());
        buf[..take].copy_from_slice(&self.bytes[..take]);
        self.bytes = &self.bytes[take..];
        Ok(take)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reading a multi-frame stream that arrives in arbitrary chunk
    /// sizes yields exactly the encoded messages, in order, and then a
    /// clean end-of-stream on the frame boundary.
    #[test]
    fn read_frame_is_chunk_size_independent(spec in conversation_strategy()) {
        let (picks, chunks) = spec;
        let pool = all_commands();
        let sent: Vec<Command> = picks
            .iter()
            .map(|&i| pool[i as usize % pool.len()].clone())
            .collect();
        let stream: Vec<u8> = sent.iter().flat_map(encode_frame).collect();

        let mut reader = Chunked::new(&stream, &chunks);
        let mut received: Vec<Command> = Vec::new();
        while let Some(command) = read_frame(&mut reader).unwrap() {
            received.push(command);
        }
        prop_assert_eq!(&received, &sent);
    }

    /// Truncating the stream anywhere never panics: the complete frames
    /// before the cut decode, and the read then ends cleanly exactly
    /// when the cut falls on a frame boundary, and as
    /// [`FrameError::Truncated`] otherwise.
    #[test]
    fn truncation_anywhere_is_detected(spec in conversation_strategy(), cut_seed in 0usize..10_000) {
        let (picks, chunks) = spec;
        let pool = all_commands();
        let sent: Vec<Command> = picks
            .iter()
            .map(|&i| pool[i as usize % pool.len()].clone())
            .collect();
        let stream: Vec<u8> = sent.iter().flat_map(encode_frame).collect();
        let cut = cut_seed % (stream.len() + 1);

        let mut reader = Chunked::new(&stream[..cut], &chunks);
        let mut decoded = 0usize;
        let end = loop {
            match read_frame::<_, Command>(&mut reader) {
                Ok(Some(command)) => {
                    prop_assert_eq!(&command, &sent[decoded]);
                    decoded += 1;
                }
                end => break end,
            }
        };
        // Every frame that fits before the cut decodes.
        let mut boundary = 0usize;
        let mut whole = 0usize;
        for command in &sent {
            let len = encode_frame(command).len();
            if boundary + len > cut {
                break;
            }
            boundary += len;
            whole += 1;
        }
        prop_assert_eq!(decoded, whole);
        if cut == boundary {
            prop_assert!(matches!(end, Ok(None)), "cut on a boundary: {:?}", end);
        } else {
            prop_assert!(matches!(end, Err(FrameError::Truncated)), "cut mid-frame: {:?}", end);
        }
    }
}

/// A campaign whose artefact directory cannot be created fails a
/// `once` server: `run()` returns the error, naming the directory,
/// instead of a summary.
#[test]
fn a_once_server_fails_when_a_campaign_cannot_be_finalized() {
    let dir = std::env::temp_dir().join(format!("fic-fleet-unwritable-{}", std::process::id()));
    let out_dir = dir.join("out");
    std::fs::create_dir_all(&out_dir).unwrap();
    std::fs::write(out_dir.join("blocked"), "a file, not a directory").unwrap();
    let options = ServerOptions {
        listen: "127.0.0.1:0".to_owned(),
        out_dir: out_dir.clone(),
        journal_dir: Some(dir.join("journal")),
        once: true,
        ..ServerOptions::default()
    };
    let spec = CampaignSpec {
        name: "blocked".to_owned(),
        protocol: Protocol::scaled(1, 500),
        e1_numbers: vec![1],
        e2_numbers: Vec::new(),
    };
    let server = Server::bind(options, vec![spec]).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    run_worker(&WorkerOptions {
        connect: addr.to_string(),
        name: "blocked-worker".to_owned(),
        threads: 1,
        ..WorkerOptions::default()
    })
    .unwrap();
    let err = server_thread.join().unwrap().unwrap_err();
    std::fs::remove_dir_all(&dir).unwrap();
    let message = err.to_string();
    assert!(
        message.contains(&out_dir.join("blocked").display().to_string()),
        "{message}"
    );
}

/// Only a registered worker holds a `once` server open. A peer that
/// connects and sends nothing, an HTTP request, random bytes, or the
/// length prefix of a frame and then nothing more never completes the
/// `Register` handshake, so the server still returns once the campaign
/// is done and the one real worker has left, with those connections
/// still open.
#[test]
fn connections_that_never_register_do_not_hold_a_once_server_open() {
    let dir = std::env::temp_dir().join(format!("fic-fleet-idle-{}", std::process::id()));
    let options = ServerOptions {
        listen: "127.0.0.1:0".to_owned(),
        out_dir: dir.join("out"),
        journal_dir: Some(dir.join("journal")),
        once: true,
        ..ServerOptions::default()
    };
    let spec = CampaignSpec {
        name: "idle".to_owned(),
        protocol: Protocol::scaled(1, 500),
        e1_numbers: vec![1, 2],
        e2_numbers: Vec::new(),
    };
    let server = Server::bind(options, vec![spec]).unwrap();
    let addr = server.local_addr().unwrap();
    let (done, finished) = mpsc::channel();
    let server_thread = std::thread::spawn(move || {
        let summary = server.run();
        let _ = done.send(());
        summary
    });

    let silent = TcpStream::connect(addr).unwrap();
    let mut http = TcpStream::connect(addr).unwrap();
    http.write_all(b"GET /status HTTP/1.1\r\n\r\n").unwrap();
    let mut random = TcpStream::connect(addr).unwrap();
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let noise: Vec<u8> = (0..64)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.to_be_bytes()[0]
        })
        .collect();
    random.write_all(&noise).unwrap();
    let mut stalled = TcpStream::connect(addr).unwrap();
    let register = encode_frame(&Command::Register {
        wire_version: WIRE_VERSION,
        worker: "stalled".to_owned(),
    });
    stalled.write_all(&register[..4]).unwrap();

    let worker = run_worker(&WorkerOptions {
        connect: addr.to_string(),
        name: "idle-worker".to_owned(),
        threads: 1,
        ..WorkerOptions::default()
    })
    .unwrap();
    assert_eq!(worker.trials, 2);
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("connections that never registered held the once server open");
    let summary = server_thread.join().unwrap().unwrap();
    assert_eq!(summary.campaigns.len(), 1);
    assert_eq!(summary.campaigns[0].trials, 2);
    drop((silent, http, random, stalled));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Nor does such a peer hold a server thread: a connection that has
/// not sent its first frame within one lease interval is closed, so a
/// silent client and one stalled inside its `Register` frame both read
/// EOF from the server.
#[test]
fn connections_that_never_register_are_closed_after_one_lease() {
    let dir = std::env::temp_dir().join(format!("fic-fleet-quiet-{}", std::process::id()));
    let options = ServerOptions {
        listen: "127.0.0.1:0".to_owned(),
        lease_ms: 200,
        out_dir: dir.join("out"),
        journal_dir: Some(dir.join("journal")),
        once: true,
        ..ServerOptions::default()
    };
    // A campaign with nothing to run: the `once` server returns as soon
    // as it has accepted the two connections below.
    let spec = CampaignSpec {
        name: "quiet".to_owned(),
        protocol: Protocol::scaled(1, 500),
        e1_numbers: Vec::new(),
        e2_numbers: Vec::new(),
    };
    let server = Server::bind(options, vec![spec]).unwrap();
    let addr = server.local_addr().unwrap();
    let mut silent = TcpStream::connect(addr).unwrap();
    let mut stalled = TcpStream::connect(addr).unwrap();
    let register = encode_frame(&Command::Register {
        wire_version: WIRE_VERSION,
        worker: "stalled".to_owned(),
    });
    stalled.write_all(&register[..4]).unwrap();
    server.run().unwrap();

    for stream in [&mut silent, &mut stalled] {
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut byte = [0u8; 1];
        let read = stream.read(&mut byte);
        assert!(
            matches!(read, Ok(0)),
            "an unregistered connection must be closed after one lease, read {read:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
