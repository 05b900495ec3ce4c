//! Contract of the TCP transport in front of `pcp_sim::FetchCore`: a
//! private registry is served coherently on every PMAPI path, and the
//! handshake speaks exactly one protocol version.

use std::net::TcpStream;
use std::sync::Arc;

use p9_memsim::SimMachine;
use pcp_sim::{InstanceId, PcpError, PmApi, Pmns};
use pcp_wire::pdu::{read_pdu, write_pdu, DEFAULT_MAX_PAYLOAD};
use pcp_wire::server::MAX_FETCH_BATCH;
use pcp_wire::{ErrorCode, Pdu, PmcdServer, WireClient, WireConfig, PROTOCOL_VERSION};

fn bind(registry: Option<Arc<obs::Registry>>) -> PmcdServer {
    let machine = SimMachine::quiet(p9_arch::Machine::tellico(), 3);
    let sockets = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    PmcdServer::bind_system_with_registry(
        "127.0.0.1:0",
        Pmns::for_machine(machine.arch()),
        sockets,
        WireConfig::default(),
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
    let server = bind(Some(private));
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
    let server = bind(None);
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
    let server = bind(None);
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
