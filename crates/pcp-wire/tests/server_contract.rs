//! Contract of the TCP transport in front of `pcp_sim::FetchCore`: a
//! private registry is served coherently on every PMAPI path, and the
//! handshake speaks exactly one protocol version.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use p9_memsim::{PrivilegeToken, SimMachine};
use pcp_sim::{InstanceId, MetricId, PcpError, PmApi, Pmns};
use pcp_wire::pdu::{read_pdu, write_pdu, DEFAULT_MAX_PAYLOAD};
use pcp_wire::server::MAX_FETCH_BATCH;
use pcp_wire::{ErrorCode, Pdu, PmcdServer, WireClient, WireConfig, PROTOCOL_VERSION};

fn bind(registry: Option<Arc<obs::Registry>>, config: WireConfig) -> PmcdServer {
    let machine = SimMachine::quiet(p9_arch::Machine::tellico(), 3);
    let sockets = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    PmcdServer::bind(
        "127.0.0.1:0",
        Pmns::for_machine(machine.arch()),
        sockets,
        &PrivilegeToken::elevated(),
        config,
        registry,
    )
    .expect("bind server")
}

/// A server bound with a private registry resolves `pmcd.obs.*` names,
/// descriptors, children *and* values against that same registry —
/// never the process-global one.
#[test]
fn private_registry_is_the_only_registry_a_server_serves() {
    obs::registry().counter("global.only").add(7);
    let private = Arc::new(obs::Registry::new());
    private.counter("private.only").add(41);
    let server = bind(Some(private), WireConfig::default());
    let client = WireClient::connect(server.local_addr()).expect("connect");

    let id = client
        .pm_lookup_name("pmcd.obs.private.only")
        .expect("private metric resolves");
    assert_eq!(
        client.pm_get_desc(id).expect("desc").name,
        "pmcd.obs.private.only"
    );
    assert_eq!(client.pm_fetch(&[(id, InstanceId(0))]), Ok(vec![41]));
    assert_eq!(
        client.pm_lookup_name("pmcd.obs.global.only"),
        Err(PcpError::NoSuchMetric("pmcd.obs.global.only".into()))
    );
    assert_eq!(
        client.pm_get_children("pmcd.obs"),
        Ok(vec!["pmcd.obs.private.only".to_owned()])
    );
}

/// The `Creds` handshake accepts exactly [`PROTOCOL_VERSION`]: both of
/// its neighbours (the lower one is the retired v2) earn `BadVersion`
/// and a closed connection.
#[test]
fn creds_handshake_rejects_both_neighbours_of_the_protocol_version() {
    let server = bind(None, WireConfig::default());
    for bad in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write_pdu(&mut stream, &Pdu::Creds { version: bad }).expect("send creds");
        match read_pdu(&mut stream, DEFAULT_MAX_PAYLOAD).expect("reply") {
            Pdu::Error { code, detail } => {
                assert_eq!(code, ErrorCode::BadVersion, "{detail}");
                assert!(detail.contains(&bad.to_string()), "{detail}");
            }
            other => panic!("version {bad} answered with {other:?}"),
        }
        assert!(
            read_pdu(&mut stream, DEFAULT_MAX_PAYLOAD).is_err(),
            "connection stays open after BadVersion"
        );
    }
    // The one supported version still shakes hands.
    assert!(WireClient::connect(server.local_addr()).is_ok());
}

/// The fetch-batch cap over a real socket: one pair too many is answered
/// `Error{TooLarge}` and counted, and the connection survives to serve a
/// batch of exactly the cap.
#[test]
fn oversized_fetch_batch_is_refused_and_the_connection_lives_on() {
    let server = bind(None, WireConfig::default());
    let client = WireClient::connect(server.local_addr()).expect("connect");
    let id = client
        .pm_lookup_name("pmcd.pdu.error")
        .expect("self-metric resolves");
    let batch = |n: usize| vec![(id, InstanceId(0)); n];

    let errors_before = server.stats().pdu_error;
    match client.pm_fetch(&batch(MAX_FETCH_BATCH + 1)) {
        Err(PcpError::Protocol(detail)) => {
            assert!(detail.contains("TooLarge"), "{detail}");
            assert!(
                detail.contains(&(MAX_FETCH_BATCH + 1).to_string()),
                "{detail}"
            );
        }
        other => panic!("oversized batch answered with {other:?}"),
    }
    assert_eq!(server.stats().pdu_error, errors_before + 1);

    // Same connection, batch at the cap: served, and the refusal above is
    // visible through the metric it was counted in.
    let values = client
        .pm_fetch(&batch(MAX_FETCH_BATCH))
        .expect("fetch at the cap");
    assert_eq!(values, vec![errors_before + 1; MAX_FETCH_BATCH]);
}

/// An exposition too big for a frame a client accepts is answered
/// `Error{TooLarge}` with its size, and the session stays up: the same
/// connection, on the server's one worker, then resolves a name.
#[test]
fn oversized_exposition_is_refused_and_the_session_lives_on() {
    let registry = Arc::new(obs::Registry::new());
    let pad = "x".repeat(200);
    // Each counter costs its `# TYPE` line and its sample, ~450 bytes.
    for i in 0..2_500 {
        registry.counter(Box::leak(format!("pad.{i:04}.{pad}").into_boxed_str()));
    }
    let one_worker = WireConfig {
        workers: 1,
        pending: 4,
    };
    let server = bind(Some(registry), one_worker);
    assert!(server.exposition().len() > 1 << 20);

    let client = WireClient::connect(server.local_addr()).expect("connect");
    match client.scrape_exposition() {
        Err(PcpError::Protocol(detail)) => {
            assert!(detail.starts_with("TooLarge: exposition of "), "{detail}");
        }
        other => panic!("oversized exposition answered with {other:?}"),
    }
    client
        .pm_lookup_name("pmcd.pdu.error")
        .expect("the session survives the refusal");
}

/// A PDU only a server sends, arriving at the server after CREDS, is
/// answered with a decodable `Error{BadPdu}` that names its type and
/// not its contents: a 5 KB `ExpositionResult` would not fit a reply
/// string. The server's one worker then serves the next client.
#[test]
fn a_backwards_pdu_too_big_for_a_reply_string_is_refused_by_type() {
    let server = bind(
        None,
        WireConfig {
            workers: 1,
            ..WireConfig::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // A worker that dies mid-request leaves the socket open: fail, not hang.
    let timeout = Some(std::time::Duration::from_secs(5));
    stream.set_read_timeout(timeout).expect("read timeout");
    let creds = Pdu::Creds {
        version: PROTOCOL_VERSION,
    };
    write_pdu(&mut stream, &creds).expect("send creds");
    assert!(matches!(
        read_pdu(&mut stream, DEFAULT_MAX_PAYLOAD),
        Ok(Pdu::CredsAck { .. })
    ));
    let backwards = Pdu::ExpositionResult {
        text: "x".repeat(5000),
    };
    write_pdu(&mut stream, &backwards).expect("send 5 KB pdu");
    assert_eq!(
        read_pdu(&mut stream, DEFAULT_MAX_PAYLOAD).expect("a decodable reply"),
        Pdu::Error {
            code: ErrorCode::BadPdu,
            detail: "unexpected pdu type 0x0f".into(),
        }
    );
    drop(stream);
    let next = WireClient::connect(server.local_addr()).expect("the worker lives on");
    assert!(next.pm_lookup_name("pmcd.pdu.in").is_ok());
}

/// A name or prefix longer than a wire string is answered locally, as
/// `PcpContext` answers it: no such metric, and no children.
#[test]
fn overlong_names_are_answered_without_a_round_trip() {
    let server = bind(None, WireConfig::default());
    let client = WireClient::connect(server.local_addr()).expect("connect");
    let pdu_in = server.stats().pdu_in;
    let name = "n".repeat(5000);
    assert_eq!(
        client.pm_lookup_name(&name),
        Err(PcpError::NoSuchMetric(name.clone()))
    );
    assert_eq!(client.pm_get_children(&name), Ok(Vec::new()));
    assert_eq!(server.stats().pdu_in, pdu_in, "nothing went on the wire");
}

/// Units outside the three a PMCD serves are a protocol error: the
/// client keeps no copy of whatever string a peer sends.
#[test]
fn unknown_units_from_a_peer_are_a_protocol_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
    let addr = listener.local_addr().expect("addr");
    // The peer answers CREDS and two DESCs up front, then drains
    // whatever the client sends until it hangs up.
    let peer = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let ack = Pdu::CredsAck {
            version: PROTOCOL_VERSION,
            client_id: 1,
        };
        write_pdu(&mut s, &ack).expect("ack");
        for units in ["furlong", "byte"] {
            let desc = Pdu::DescResult {
                id: 0,
                semantics: 0,
                channel: 0,
                direction: 0,
                units: units.into(),
                name: "a.b".into(),
            };
            write_pdu(&mut s, &desc).expect("desc");
        }
        std::io::copy(&mut s, &mut std::io::sink()).expect("drain");
    });
    let client = WireClient::connect(addr).expect("connect to fake peer");
    match client.pm_get_desc(MetricId(0)) {
        Err(PcpError::Protocol(detail)) => assert!(detail.contains("furlong"), "{detail}"),
        other => panic!("unknown units answered with {other:?}"),
    }
    assert_eq!(client.pm_get_desc(MetricId(0)).map(|d| d.units), Ok("byte"));
    drop(client);
    peer.join().expect("fake peer");
}
