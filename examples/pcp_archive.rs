//! Archive logging with the simulated Performance Co-Pilot: a `pmlogger`
//! records nest read/write counters while a capped GEMV runs, and the
//! archive is replayed as rates afterwards — the retrospective-analysis
//! workflow Summit's system telemetry uses.
//!
//! One [`PmLogger`] type records over either transport: the slab loop
//! polls two of them at the same simulated times, one on the in-process
//! [`PcpContext`] and one on a [`WireClient`] talking TCP to a live
//! [`PmcdServer`] over the same sockets — how `pmlogger` runs against a
//! production `pmcd`. PCP reads the same counters either way, so the two
//! archives must be equal record for record.
//!
//! ```sh
//! cargo run --release --example pcp_archive
//! ```

use papi_repro::kernels::CappedGemvTrace;
use papi_repro::memsim::SimMachine;
use papi_repro::pcp::{PcpContext, PmLogger, Pmcd, PmcdConfig, Pmns};
use papi_repro::wire::{PmcdServer, WireClient, WireConfig};

fn main() {
    let mut machine = SimMachine::summit(33);
    let pmns = Pmns::for_machine(machine.arch());
    let sockets: Vec<_> = (0..machine.num_sockets())
        .map(|s| machine.socket_shared(s))
        .collect();
    let daemon = Pmcd::spawn_system(pmns.clone(), sockets.clone(), PmcdConfig::default())
        .expect("spawn pmcd");
    let server =
        PmcdServer::bind_system("127.0.0.1:0", pmns.clone(), sockets, WireConfig::default())
            .expect("bind pmcd server");
    println!("live pmcd server on {}", server.local_addr());

    // Log both directions of channel 0 every 2 ms of simulated time.
    let metrics = vec![
        (
            pmns.lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value")
                .unwrap(),
            pmns.instance_of_socket(0),
        ),
        (
            pmns.lookup("perfevent.hwcounters.nest_mba0_imc.PM_MBA0_WRITE_BYTES.value")
                .unwrap(),
            pmns.instance_of_socket(0),
        ),
    ];
    let ctx = PcpContext::connect(daemon.handle(), None);
    let mut logger = PmLogger::new(ctx, metrics.clone(), 2e-3).expect("positive interval");
    let client = WireClient::connect(server.local_addr()).expect("connect pmlogger client");
    let mut wire_logger = PmLogger::new(client, metrics, 2e-3).expect("positive interval");

    // The workload: capped GEMV slabs, polling both loggers between slabs.
    let (m, n) = (32_768u64, 1280u64);
    let kernel = CappedGemvTrace::allocate(&mut machine, m, n);
    let shared = machine.socket_shared(0);
    // Run under the all-cores L3 share (the batched setting of Fig. 5):
    // A (12.5 MiB) exceeds the ~5 MiB share, so its rows stream from
    // memory on every pass.
    let slab = 2048u64;
    let mut i = 0;
    while i < m {
        let hi = (i + slab).min(m);
        machine.run_parallel(0, 21, |tid, core| {
            if tid != 0 {
                return;
            }
            for row in i..hi {
                let ip = row % kernel.p;
                core.load_seq(kernel.a.elem(ip * n, 8), n * 8);
                core.compute(2 * n);
                core.store(kernel.y.elem(row, 8), 8);
            }
        });
        let now = shared.now_seconds();
        logger.poll(now).expect("in-process fetch");
        wire_logger.poll(now).expect("wire fetch");
        i = hi;
    }

    let archive = logger.close();
    let wire_archive = wire_logger.close();
    println!(
        "archive: {} samples over {:.3} s of simulated time",
        archive.len(),
        archive.records().last().map_or(0.0, |r| r.time_s)
    );
    println!("t_s,read_Bps(ch0 x8),write_Bps(ch0 x8)");
    for rec in archive.records().iter().skip(1) {
        let rd = archive.rate_at(0, rec.time_s).unwrap_or(0.0) * 8.0;
        let wr = archive.rate_at(1, rec.time_s).unwrap_or(0.0) * 8.0;
        println!("{:.4},{rd:.3e},{wr:.3e}", rec.time_s);
    }
    println!(
        "\n(reads stream matrix A at memory bandwidth; writes are the thin \
         y vector — the Fig. 5 asymmetry, replayed from an archive)"
    );

    let same = archive.records() == wire_archive.records();
    println!(
        "in-process and wire archives {} record for record ({} vs {} samples)",
        if same { "agree" } else { "DIFFER" },
        archive.len(),
        wire_archive.len()
    );
}
