//! End-to-end test of the `habit serve` daemon: spawns the real binary
//! on an ephemeral port, speaks habit-wire/v1 over a real TCP socket
//! (`Health`, `Impute`, `ImputeBatch`, `Repair`, `Shutdown`), and
//! asserts the TCP path produces **byte-identical** imputation output
//! to the `habit impute` CLI adapter on the same model and gap — the
//! acceptance check that both frontends share one code path.

use habit_service::{wire, Request, Response};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn habit(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_habit"))
        .args(args)
        .output()
        .expect("spawn habit binary")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("habit-serve-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// Builds a small model through the real binary; returns (csv, model).
fn build_model(dir: &Path) -> (PathBuf, PathBuf) {
    let csv = dir.join("kiel.csv");
    let model = dir.join("kiel.habit");
    let out = habit(&[
        "synth",
        "--dataset",
        "kiel",
        "--scale",
        "0.05",
        "--seed",
        "7",
        "--out",
        csv.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = habit(&[
        "fit",
        "--input",
        csv.to_str().unwrap(),
        "--resolution",
        "9",
        "--tolerance",
        "100",
        "--out",
        model.to_str().unwrap(),
        // Embed the fit state so the daemon under test is refittable.
        "--save-state",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (csv, model)
}

/// Spawns `habit serve --port 0` and parses the bound address from its
/// first stdout line (guarded by a timeout so a hung daemon fails the
/// test instead of wedging CI).
fn spawn_daemon(model: &Path) -> (Child, String) {
    spawn_daemon_with_args(model, &[])
}

/// [`spawn_daemon`] with extra `habit serve` flags appended.
fn spawn_daemon_with_args(model: &Path, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_habit"))
        .args([
            "serve",
            "--model",
            model.to_str().unwrap(),
            "--port",
            "0",
            "--threads",
            "2",
            "--conn-threads",
            "2",
        ])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn habit serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read banner line");
    let addr = first
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {first:?}"))
        .to_string();
    // Keep draining stdout in the background so the daemon never blocks
    // on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    (child, addr)
}

/// Spawns `habit serve --port 0 --metrics-port 0` and parses both the
/// wire address and the metrics endpoint address from the banner.
fn spawn_daemon_with_metrics(model: &Path) -> (Child, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_habit"))
        .args([
            "serve",
            "--model",
            model.to_str().unwrap(),
            "--port",
            "0",
            "--threads",
            "2",
            "--conn-threads",
            "2",
            "--metrics-port",
            "0",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn habit serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut addr = String::new();
    let mut metrics_addr = String::new();
    while addr.is_empty() || metrics_addr.is_empty() {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read banner line") > 0,
            "daemon exited before printing both addresses"
        );
        if let Some(rest) = line.split("listening on ").nth(1) {
            addr = rest.split_whitespace().next().unwrap_or("").to_string();
        }
        if let Some(rest) = line.split("metrics on http://").nth(1) {
            metrics_addr = rest.split_whitespace().next().unwrap_or("").to_string();
        }
    }
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    (child, addr, metrics_addr)
}

/// One plaintext HTTP GET against the metrics endpoint.
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut page = String::new();
    stream.read_to_string(&mut page).expect("read metrics page");
    page
}

/// Sends one request line and reads one response line.
fn round_trip(stream: &TcpStream, reader: &mut BufReader<TcpStream>, request: &Request) -> String {
    let mut s = stream;
    s.write_all(wire::encode_request(request).as_bytes())
        .unwrap();
    s.write_all(b"\n").unwrap();
    s.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read response line");
    assert!(!reply.is_empty(), "daemon closed the connection early");
    reply
}

/// Waits for the daemon to exit, failing the test on a hang.
fn wait_with_timeout(child: &mut Child, limit: Duration) -> std::process::ExitStatus {
    let t0 = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if t0.elapsed() > limit {
            let _ = child.kill();
            panic!("habit serve did not exit within {limit:?} after Shutdown");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn daemon_round_trip_matches_the_cli_byte_for_byte() {
    let dir = tmpdir("roundtrip");
    let (csv, model) = build_model(&dir);

    // A gap along the corridor, from the dataset's own coordinates.
    let text = std::fs::read_to_string(&csv).unwrap();
    let first: Vec<&str> = text.lines().nth(1).unwrap().split(',').collect();
    let (lon, lat): (f64, f64) = (first[2].parse().unwrap(), first[3].parse().unwrap());
    let (lon2, t2) = (lon + 0.15, 3600i64);
    let gap = habit_core::GapQuery::new(lon, lat, 0, lon2, lat, t2);

    let (mut child, addr) = spawn_daemon(&model);
    let stream = TcpStream::connect(&addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // -- Health: model loaded, graph populated.
    let reply = round_trip(&stream, &mut reader, &Request::Health);
    let Ok(Response::Health(health)) = wire::decode_response(&reply).unwrap() else {
        panic!("health reply: {reply}");
    };
    assert!(health.model_loaded);
    assert!(health.cells > 0);

    // -- Impute over TCP.
    let reply = round_trip(
        &stream,
        &mut reader,
        &Request::Impute {
            gap,
            provenance: false,
        },
    );
    let Ok(Response::Imputation(tcp_imputation)) = wire::decode_response(&reply).unwrap() else {
        panic!("impute reply: {reply}");
    };
    assert!(tcp_imputation.points.len() >= 2);

    // -- ImputeBatch over TCP: same gap twice — identical answers, one
    //    unique route.
    let reply = round_trip(
        &stream,
        &mut reader,
        &Request::ImputeBatch {
            gaps: vec![gap, gap],
            provenance: false,
        },
    );
    let Ok(Response::Batch(batch)) = wire::decode_response(&reply).unwrap() else {
        panic!("batch reply: {reply}");
    };
    assert_eq!(batch.stats.queries, 2);
    assert_eq!(batch.stats.ok, 2);
    assert_eq!(batch.stats.unique_routes, 1, "route dedup over TCP");
    for result in &batch.results {
        let imp = result.as_ref().expect("batch result");
        assert_eq!(imp.points, tcp_imputation.points, "batch == single");
    }

    // -- The byte-identical acceptance check: render the TCP answer
    //    through the same CSV writer the CLI uses and diff the files.
    let cli_out = dir.join("cli-imputed.csv");
    let out = habit(&[
        "impute",
        "--model",
        model.to_str().unwrap(),
        "--from",
        &format!("{lon},{lat},0"),
        "--to",
        &format!("{lon2},{lat},{t2}"),
        "--out",
        cli_out.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tcp_out = dir.join("tcp-imputed.csv");
    habit_cli::io::write_track_csv(&tcp_imputation.points, &tcp_out).unwrap();
    let cli_bytes = std::fs::read(&cli_out).unwrap();
    let tcp_bytes = std::fs::read(&tcp_out).unwrap();
    assert!(!cli_bytes.is_empty());
    assert_eq!(
        cli_bytes, tcp_bytes,
        "TCP daemon and CLI adapter must produce byte-identical imputation output"
    );

    // -- Refit over TCP: a delta of the same corridor under new vessel
    //    ids hot-swaps the serving model without a restart.
    let delta = dir.join("delta.csv");
    let mut delta_body = String::from("mmsi,t,lon,lat,sog,cog,heading\n");
    for line in text.lines().skip(1) {
        let (mmsi, rest) = line.split_once(',').expect("csv row");
        let mmsi: u64 = mmsi.parse().expect("mmsi");
        delta_body.push_str(&format!("{},{rest}\n", mmsi + 1_000_000));
    }
    std::fs::write(&delta, delta_body).unwrap();
    let reply = round_trip(
        &stream,
        &mut reader,
        &Request::Refit(habit_service::RefitSpec {
            input: delta.to_str().unwrap().to_string(),
            save_to: None,
        }),
    );
    let Ok(Response::Refitted(refit)) = wire::decode_response(&reply).unwrap() else {
        panic!("refit reply: {reply}");
    };
    assert!(refit.trips_added > 0);
    assert_eq!(
        refit.trips_total,
        refit.trips_added * 2,
        "the delta duplicates the history's traffic trip for trip"
    );
    // The refitted model serves immediately on the same connection, and
    // the duplicated corridor does not change the answer's geometry
    // (medians over duplicated positions are unchanged).
    let reply = round_trip(
        &stream,
        &mut reader,
        &Request::Impute {
            gap,
            provenance: false,
        },
    );
    let Ok(Response::Imputation(after_refit)) = wire::decode_response(&reply).unwrap() else {
        panic!("impute-after-refit reply: {reply}");
    };
    assert_eq!(after_refit.points, tcp_imputation.points);

    // -- Shutdown: acknowledged, then the process exits cleanly (0).
    let reply = round_trip(&stream, &mut reader, &Request::Shutdown);
    assert!(matches!(
        wire::decode_response(&reply).unwrap(),
        Ok(Response::ShuttingDown)
    ));
    let status = wait_with_timeout(&mut child, Duration::from_secs(30));
    assert!(status.success(), "clean exit after Shutdown: {status:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// ISSUE 7 satellite: N clients hammer one daemon **concurrently** with
/// overlapping routes (same corridor, per-client gap durations), and
/// every answer — rendered through the CLI's own CSV writer — must be
/// byte-identical to a sequential `habit impute` run on the same model.
/// This pins the pooled per-thread search arenas and RDP scratch
/// buffers under real contention: a cross-request state leak (a stale
/// generation counter, a dirty scratch buffer) would show up as a
/// one-bit diff in some client's CSV.
#[test]
fn concurrent_clients_match_sequential_cli_byte_for_byte() {
    const CLIENTS: usize = 4;
    const GAPS_PER_CLIENT: usize = 3;

    let dir = tmpdir("concurrent");
    let (csv, model) = build_model(&dir);

    // Gaps along the dataset's own corridor: identical geometry (so the
    // clients' routes overlap and contend for the same pooled state)
    // with a distinct duration per (client, round), which changes the
    // allocated timestamps and therefore every CSV body.
    let text = std::fs::read_to_string(&csv).unwrap();
    let first: Vec<&str> = text.lines().nth(1).unwrap().split(',').collect();
    let (lon, lat): (f64, f64) = (first[2].parse().unwrap(), first[3].parse().unwrap());
    let lon2 = lon + 0.15;
    let gap_for = |client: usize, round: usize| {
        let t2 = 3600 + (client * GAPS_PER_CLIENT + round) as i64 * 600;
        habit_core::GapQuery::new(lon, lat, 0, lon2, lat, t2)
    };

    let (mut child, addr) = spawn_daemon(&model);

    // -- Concurrent phase: each client opens its own connection and
    //    imputes its gaps; a barrier lines all clients up so the
    //    requests genuinely overlap instead of accidentally serializing.
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(CLIENTS));
    let answers: Vec<Vec<habit_core::Imputation>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let addr = addr.clone();
                let barrier = std::sync::Arc::clone(&barrier);
                scope.spawn(move || {
                    let stream = TcpStream::connect(&addr).expect("connect client");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    barrier.wait();
                    (0..GAPS_PER_CLIENT)
                        .map(|round| {
                            let gap = gap_for(client, round);
                            let reply = round_trip(
                                &stream,
                                &mut reader,
                                &Request::Impute {
                                    gap,
                                    provenance: false,
                                },
                            );
                            match wire::decode_response(&reply).unwrap() {
                                Ok(Response::Imputation(imp)) => imp,
                                other => panic!("client {client} round {round}: {other:?}"),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    // -- Shutdown before the sequential phase so the daemon cannot
    //    interfere with the CLI runs' timing.
    let stream = TcpStream::connect(&addr).expect("connect for shutdown");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let reply = round_trip(&stream, &mut reader, &Request::Shutdown);
    assert!(matches!(
        wire::decode_response(&reply).unwrap(),
        Ok(Response::ShuttingDown)
    ));
    let status = wait_with_timeout(&mut child, Duration::from_secs(30));
    assert!(status.success(), "clean exit after Shutdown: {status:?}");

    // -- Sequential reference: one `habit impute` process per gap, then
    //    a byte-for-byte diff against the concurrent answers rendered
    //    through the identical CSV writer.
    for (client, client_answers) in answers.iter().enumerate() {
        for (round, answer) in client_answers.iter().enumerate() {
            let gap = gap_for(client, round);
            let cli_out = dir.join(format!("cli-{client}-{round}.csv"));
            let out = habit(&[
                "impute",
                "--model",
                model.to_str().unwrap(),
                "--from",
                &format!(
                    "{},{},{}",
                    gap.start.pos.lon, gap.start.pos.lat, gap.start.t
                ),
                "--to",
                &format!("{},{},{}", gap.end.pos.lon, gap.end.pos.lat, gap.end.t),
                "--out",
                cli_out.to_str().unwrap(),
            ]);
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let tcp_out = dir.join(format!("tcp-{client}-{round}.csv"));
            habit_cli::io::write_track_csv(&answer.points, &tcp_out).unwrap();
            let cli_bytes = std::fs::read(&cli_out).unwrap();
            let tcp_bytes = std::fs::read(&tcp_out).unwrap();
            assert!(!cli_bytes.is_empty());
            assert_eq!(
                cli_bytes, tcp_bytes,
                "client {client} round {round}: concurrent daemon output must be \
                 byte-identical to the sequential CLI"
            );
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// ISSUE 10 tentpole, end to end: cross-connection admission batching
/// is **byte-invisible**. Eight clients hammer a coalescing daemon
/// concurrently with overlapping routes (shared and per-client gap
/// durations, plus an `impute_batch` each), then replay the identical
/// workload against a `--no-coalesce` daemon — every `impute` response
/// must match byte-for-byte as a raw wire line, and every batch result
/// must carry bit-identical points. The health payloads prove the two
/// daemons really ran in different modes.
#[test]
fn coalescing_is_byte_invisible_to_concurrent_clients() {
    const CLIENTS: usize = 8;

    let dir = tmpdir("coalesce");
    let (csv, model) = build_model(&dir);
    let text = std::fs::read_to_string(&csv).unwrap();
    let first: Vec<&str> = text.lines().nth(1).unwrap().split(',').collect();
    let (lon, lat): (f64, f64) = (first[2].parse().unwrap(), first[3].parse().unwrap());
    let lon2 = lon + 0.15;
    // Round 0 is the same gap for every client (coalescing dedups it
    // across connections); round 1 is distinct per client (scatter must
    // route each answer back to its own connection). The batch mixes
    // both shapes.
    let shared_gap = habit_core::GapQuery::new(lon, lat, 0, lon2, lat, 3600);
    let client_gap = |client: usize| {
        habit_core::GapQuery::new(lon, lat, 0, lon2, lat, 4200 + client as i64 * 600)
    };
    let run_clients = |addr: &str| -> Vec<(String, String, Vec<habit_core::Imputation>)> {
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(CLIENTS));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let addr = addr.to_string();
                    let barrier = std::sync::Arc::clone(&barrier);
                    scope.spawn(move || {
                        let stream = TcpStream::connect(&addr).expect("connect client");
                        stream
                            .set_read_timeout(Some(Duration::from_secs(60)))
                            .unwrap();
                        let mut reader = BufReader::new(stream.try_clone().unwrap());
                        barrier.wait();
                        let shared_reply = round_trip(
                            &stream,
                            &mut reader,
                            &Request::Impute {
                                gap: shared_gap,
                                provenance: false,
                            },
                        );
                        let own_reply = round_trip(
                            &stream,
                            &mut reader,
                            &Request::Impute {
                                gap: client_gap(client),
                                provenance: false,
                            },
                        );
                        let batch_reply = round_trip(
                            &stream,
                            &mut reader,
                            &Request::ImputeBatch {
                                gaps: vec![shared_gap, client_gap(client), shared_gap],
                                provenance: false,
                            },
                        );
                        let Ok(Response::Batch(batch)) =
                            wire::decode_response(&batch_reply).unwrap()
                        else {
                            panic!("client {client} batch: {batch_reply}");
                        };
                        let batch_points: Vec<habit_core::Imputation> = batch
                            .results
                            .into_iter()
                            .map(|r| r.expect("batch result"))
                            .collect();
                        (shared_reply, own_reply, batch_points)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    };
    let shut_down = |mut child: Child, addr: &str| {
        let stream = TcpStream::connect(addr).expect("connect for shutdown");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let reply = round_trip(&stream, &mut reader, &Request::Shutdown);
        assert!(matches!(
            wire::decode_response(&reply).unwrap(),
            Ok(Response::ShuttingDown)
        ));
        let status = wait_with_timeout(&mut child, Duration::from_secs(30));
        assert!(status.success(), "clean exit after Shutdown: {status:?}");
    };
    let health_admission = |addr: &str| -> Option<u64> {
        let stream = TcpStream::connect(addr).expect("connect for health");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let reply = round_trip(&stream, &mut reader, &Request::Health);
        let Ok(Response::Health(h)) = wire::decode_response(&reply).unwrap() else {
            panic!("health reply: {reply}");
        };
        h.admission.map(|a| a.queue_capacity)
    };

    // Coalescing daemon (the default): whatever the eight clients send
    // while a pass runs shares the next flush.
    let (on_child, on_addr) = spawn_daemon_with_args(&model, &["--batch-max-gaps", "64"]);
    assert_eq!(
        health_admission(&on_addr),
        Some(64 * 8),
        "coalescing daemon advertises its admission queue"
    );
    let coalesced = run_clients(&on_addr);
    shut_down(on_child, &on_addr);

    // Direct-path daemon: identical model, identical workload.
    let (off_child, off_addr) = spawn_daemon_with_args(&model, &["--no-coalesce"]);
    assert_eq!(
        health_admission(&off_addr),
        None,
        "--no-coalesce daemon has no admission layer"
    );
    let direct = run_clients(&off_addr);
    shut_down(off_child, &off_addr);

    for (client, ((on_shared, on_own, on_batch), (off_shared, off_own, off_batch))) in
        coalesced.iter().zip(&direct).enumerate()
    {
        // `impute` responses carry no timing field: the raw wire lines
        // must be byte-identical between the two modes.
        assert_eq!(on_shared, off_shared, "client {client}: shared-gap reply");
        assert_eq!(on_own, off_own, "client {client}: per-client-gap reply");
        // `impute_batch` responses carry wall_s, so compare the payload:
        // every imputation bit-identical, in order.
        assert_eq!(on_batch.len(), off_batch.len());
        for (i, (a, b)) in on_batch.iter().zip(off_batch).enumerate() {
            assert_eq!(a.points, b.points, "client {client} batch gap {i}");
            assert_eq!(a.cells, b.cells, "client {client} batch gap {i}");
            assert_eq!(
                a.cost.to_bits(),
                b.cost.to_bits(),
                "client {client} batch gap {i}"
            );
        }
    }
    // Scatter sanity: each client's round-1 answer reflects its own gap
    // duration (last point lands at the client's own end timestamp).
    for (client, (_, own_reply, _)) in coalesced.iter().enumerate() {
        let Ok(Response::Imputation(imp)) = wire::decode_response(own_reply).unwrap() else {
            panic!("client {client} own reply: {own_reply}");
        };
        assert_eq!(
            imp.points.last().expect("points").t,
            client_gap(client).end.t,
            "client {client} got its own answer back"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// ISSUE 8 tentpole, end to end: the daemon's observability surface.
/// One daemon, three windows onto the same counters — the extended
/// `health` payload (monotonic across requests), the `metrics` wire
/// operation, and the `--metrics-port` plaintext HTTP endpoint — plus
/// per-point provenance opt-in that leaves the points byte-identical,
/// and error spans for a malformed request (the parse failure must show
/// up in the per-op error counters even though no request ever ran).
#[test]
fn observability_surface_over_the_daemon() {
    let dir = tmpdir("metrics");
    let (csv, model) = build_model(&dir);
    let text = std::fs::read_to_string(&csv).unwrap();
    let first: Vec<&str> = text.lines().nth(1).unwrap().split(',').collect();
    let (lon, lat): (f64, f64) = (first[2].parse().unwrap(), first[3].parse().unwrap());
    let gap = habit_core::GapQuery::new(lon, lat, 0, lon + 0.15, lat, 3600);

    let (mut child, addr, metrics_addr) = spawn_daemon_with_metrics(&model);
    let stream = TcpStream::connect(&addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // -- Health twice around two imputes: counters strictly monotonic,
    //    the clock never goes backwards, the route cache is visible.
    let reply = round_trip(&stream, &mut reader, &Request::Health);
    let Ok(Response::Health(h1)) = wire::decode_response(&reply).unwrap() else {
        panic!("health reply: {reply}");
    };
    let reply = round_trip(
        &stream,
        &mut reader,
        &Request::Impute {
            gap,
            provenance: false,
        },
    );
    let Ok(Response::Imputation(plain)) = wire::decode_response(&reply).unwrap() else {
        panic!("impute reply: {reply}");
    };
    assert!(plain.provenance.is_none(), "provenance is opt-in");
    let reply = round_trip(
        &stream,
        &mut reader,
        &Request::Impute {
            gap,
            provenance: true,
        },
    );
    let Ok(Response::Imputation(prov)) = wire::decode_response(&reply).unwrap() else {
        panic!("impute --provenance reply: {reply}");
    };
    let reply = round_trip(&stream, &mut reader, &Request::Health);
    let Ok(Response::Health(h2)) = wire::decode_response(&reply).unwrap() else {
        panic!("health reply: {reply}");
    };
    // A request is counted after its own response is built, so h1
    // reports the pre-existing total (0) and h2 sees h1 + two imputes.
    assert_eq!(h2.requests_total, h1.requests_total + 3);
    assert!(
        h2.requests_total > h1.requests_total,
        "requests_total monotonic: {} -> {}",
        h1.requests_total,
        h2.requests_total
    );
    assert!(h2.uptime_ticks >= h1.uptime_ticks, "uptime never rewinds");
    assert!(h2.route_cache_misses >= 1, "first route was a miss");
    assert!(h2.route_cache_hits >= 1, "repeated route hits the cache");

    // -- Provenance: every imputed point explained, points untouched.
    let records = prov.provenance.as_ref().expect("provenance requested");
    assert_eq!(records.len(), prov.points.len());
    assert_eq!(prov.points, plain.points, "provenance must not move points");

    // -- The `metrics` wire operation returns the same registry.
    let reply = round_trip(&stream, &mut reader, &Request::Metrics);
    let Ok(Response::Metrics(snapshot)) = wire::decode_response(&reply).unwrap() else {
        panic!("metrics reply: {reply}");
    };
    let impute_count = snapshot
        .samples
        .iter()
        .find(|s| {
            s.name == "habit_requests_total"
                && s.labels == vec![("op".to_string(), "impute".to_string())]
        })
        .expect("habit_requests_total{op=impute} sample");
    assert_eq!(impute_count.value, 2.0, "two imputes served");

    // -- A malformed request line (separate connection) must land in
    //    the error counters as op=unknown even though nothing ran.
    {
        let bad = TcpStream::connect(&addr).expect("connect for malformed line");
        bad.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut bad_reader = BufReader::new(bad.try_clone().unwrap());
        (&bad).write_all(b"this is not json\n").unwrap();
        let mut reply = String::new();
        bad_reader.read_line(&mut reply).expect("error reply");
        assert!(reply.contains("bad_request"), "{reply}");
    }

    // -- The HTTP endpoint serves the same counters as plaintext, and
    //    /spans exposes the recent per-request span records.
    let page = http_get(&metrics_addr, "/");
    assert!(page.starts_with("HTTP/1.0 200 OK\r\n"), "{page}");
    assert!(
        page.contains("habit_requests_total{op=\"impute\"} 2\n"),
        "{page}"
    );
    assert!(
        page.contains("habit_requests_total{op=\"health\"} 2\n"),
        "{page}"
    );
    assert!(
        page.contains("habit_errors_total{code=\"bad_request\",op=\"unknown\"} 1\n"),
        "{page}"
    );
    assert!(page.contains("habit_route_cache_hits_total"), "{page}");
    let spans = http_get(&metrics_addr, "/spans");
    assert!(spans.contains("\"name\":\"handle\""), "{spans}");
    assert!(spans.contains("\"op\":\"impute\""), "{spans}");
    assert!(spans.contains("\"ok\":false"), "failed parse span: {spans}");

    let reply = round_trip(&stream, &mut reader, &Request::Shutdown);
    assert!(matches!(
        wire::decode_response(&reply).unwrap(),
        Ok(Response::ShuttingDown)
    ));
    let status = wait_with_timeout(&mut child, Duration::from_secs(30));
    assert!(status.success(), "clean exit after Shutdown: {status:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// ISSUE 8 acceptance: `habit impute --provenance` is deterministic —
/// byte-identical across runs — and matches the committed golden CSV
/// for the seeded KIEL model (seed 7, scale 0.05), so any drift in the
/// provenance schema, float formatting, or the imputation itself fails
/// loudly here.
#[test]
fn provenance_csv_matches_the_committed_golden() {
    let dir = tmpdir("provgolden");
    let (csv, model) = build_model(&dir);

    // The same corridor gap as the round-trip test: anchored on the
    // seeded dataset's own first report, so the query is as
    // deterministic as the model.
    let text = std::fs::read_to_string(&csv).unwrap();
    let first: Vec<&str> = text.lines().nth(1).unwrap().split(',').collect();
    let (lon, lat): (f64, f64) = (first[2].parse().unwrap(), first[3].parse().unwrap());
    let impute = |out: &Path| {
        let run = habit(&[
            "impute",
            "--model",
            model.to_str().unwrap(),
            "--from",
            &format!("{lon},{lat},0"),
            "--to",
            &format!("{},{lat},3600", lon + 0.15),
            "--provenance",
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
    };
    let out1 = dir.join("prov-1.csv");
    let out2 = dir.join("prov-2.csv");
    impute(&out1);
    impute(&out2);
    let bytes1 = std::fs::read(&out1).unwrap();
    let bytes2 = std::fs::read(&out2).unwrap();
    assert!(!bytes1.is_empty());
    assert_eq!(bytes1, bytes2, "provenance CSV must be run-to-run stable");

    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/impute_provenance.csv");
    let golden = std::fs::read(&golden_path).expect("committed golden CSV");
    assert_eq!(
        bytes1,
        golden,
        "provenance output drifted from {} — if the change is intentional, \
         regenerate the golden with the command in that file's header row",
        golden_path.display()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The repair golden's fixed world: four east-bound trips along one
/// lane, fitted at r = 9, t = 100 m. Everything is hard-coded, so the
/// model is a pure function of the fit pipeline.
fn repair_fixture_model() -> habit_core::HabitModel {
    let trips: Vec<ais::Trip> = (0..4u64)
        .map(|k| ais::Trip {
            trip_id: k + 1,
            mmsi: 100 + k,
            points: (0..200)
                .map(|i| {
                    ais::AisPoint::new(
                        100 + k,
                        i as i64 * 60,
                        10.0 + i as f64 * 0.003,
                        56.0,
                        12.0,
                        90.0,
                    )
                })
                .collect(),
        })
        .collect();
    habit_core::HabitModel::fit(
        &ais::trips_to_table(&trips),
        habit_core::HabitConfig::with_r_t(9, 100.0),
    )
    .expect("fixture fit")
}

/// The golden's requests: one track with two silences along the lane
/// and a third that jumps back west against the one-way lane (no
/// path), repaired without and with provenance.
fn repair_golden_requests() -> Vec<Request> {
    let mut track: Vec<geo_kernel::TimedPoint> = (0..200i64)
        .filter(|i| !(40..70).contains(i) && !(120..160).contains(i))
        .map(|i| geo_kernel::TimedPoint::new(10.0 + i as f64 * 0.003, 56.0, i * 60))
        .collect();
    let end = 199 * 60;
    track.push(geo_kernel::TimedPoint::new(10.05, 56.0, end + 2 * 3600));
    track.push(geo_kernel::TimedPoint::new(
        10.04,
        56.0,
        end + 2 * 3600 + 60,
    ));
    [false, true]
        .map(|provenance| Request::Repair {
            track: track.clone(),
            config: habit_service::RepairConfig {
                gap_threshold_s: 20 * 60,
                densify_max_spacing_m: Some(250.0),
            },
            provenance,
        })
        .to_vec()
}

/// The committed repair golden, one response line per request of
/// [`repair_golden_requests`]. Regenerate after a deliberate change
/// with `HABIT_REGEN_GOLDEN=1 cargo test -p habit-cli --test serve
/// repair_golden`.
fn repair_golden(fresh: &[String]) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/repair.jsonl");
    if std::env::var_os("HABIT_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, fresh.concat()).expect("write repair golden");
    }
    std::fs::read_to_string(&path)
        .expect("committed repair golden")
        .lines()
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Whole-track repair answers byte-for-byte as the committed golden,
/// in process: every gap imputed or failed (`no_path`) with the same
/// points, provenance, codes and messages.
#[test]
fn repair_golden_matches_in_process() {
    let service = habit_service::Service::with_model(
        habit_service::ServiceConfig {
            threads: 2,
            cache_capacity: 64,
        },
        repair_fixture_model(),
    );
    let fresh: Vec<String> = repair_golden_requests()
        .iter()
        .map(|request| format!("{}\n", wire::encode_response(&service.handle(request))))
        .collect();
    assert!(fresh.iter().all(|line| line.contains("\"ok\":true")));
    assert!(fresh.iter().all(|line| line.contains("\"no_path\"")));
    assert_eq!(fresh, repair_golden(&fresh));
}

/// The same golden over TCP: the daemon's reply lines are the
/// in-process response lines.
#[test]
fn repair_golden_matches_over_tcp() {
    let dir = tmpdir("repairgolden");
    let model = dir.join("lane.habit");
    std::fs::write(&model, repair_fixture_model().to_bytes()).unwrap();
    let (mut child, addr) = spawn_daemon(&model);
    let stream = TcpStream::connect(&addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let replies: Vec<String> = repair_golden_requests()
        .iter()
        .map(|request| round_trip(&stream, &mut reader, request))
        .collect();
    assert_eq!(replies, repair_golden(&replies));

    let reply = round_trip(&stream, &mut reader, &Request::Shutdown);
    assert!(matches!(
        wire::decode_response(&reply).unwrap(),
        Ok(Response::ShuttingDown)
    ));
    let status = wait_with_timeout(&mut child, Duration::from_secs(30));
    assert!(status.success(), "clean exit after Shutdown: {status:?}");
    std::fs::remove_dir_all(&dir).ok();
}
