//! End-to-end tests of the `fd serve` daemon over real sockets: shared
//! session, multi-client fan-out, protocol-error isolation, and the
//! replay identity — the served state must be byte-identical to a
//! single-process `FdSession` fed the same batches.

use full_disjunction::core::serve::{Client, ServeOptions, Server};
use full_disjunction::core::{FdEvent, FdSession};
use full_disjunction::relational::{tourist_database, Database, Delta, RelId, TupleId};
use std::io::{Read as _, Write as _};

/// Renders a commit's events exactly as the daemon's fan-out does.
fn event_lines(events: &[FdEvent], db: &Database) -> Vec<String> {
    events
        .iter()
        .map(|e| format!("event {}", e.label(db)))
        .collect()
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    let greeting = client.read_response().expect("greeting");
    assert!(
        greeting.last().unwrap().starts_with("ok fd serve ("),
        "{greeting:?}"
    );
    client
}

/// The ISSUE acceptance scenario: a daemon on an ephemeral port, three
/// concurrent subscribed clients, one actor. Every subscriber receives
/// the identical net-effect event sequence for each commit; a malformed
/// line from one client earns an error reply without disturbing the
/// others; and the final `show` is byte-identical to a single-process
/// `FdSession` replay of the same batches.
#[test]
fn three_subscribers_see_identical_feeds_matching_an_in_process_replay() {
    let server = Server::start(FdSession::new(tourist_database()), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let mut subs: Vec<Client> = (0..3).map(|_| connect(addr)).collect();
    for (i, sub) in subs.iter_mut().enumerate() {
        assert_eq!(
            sub.request("subscribe").unwrap(),
            vec![format!("ok subscribed s{i}")]
        );
    }

    // Before any mutation: a malformed line from subscriber 0 earns a
    // protocol error, nothing more.
    assert_eq!(
        subs[0].request("insert NoPipeHere").unwrap(),
        vec!["error protocol: usage: insert REL | V1 | V2 ..."]
    );

    // The actor drives three commits: a singleton insert, a batched
    // insert+delete transaction, and a singleton delete.
    let mut actor = connect(addr);
    assert_eq!(
        actor.request("insert Climates | Chile | arid").unwrap(),
        vec!["ok inserted c4 into Climates; 1 event(s)"]
    );
    actor.request("begin").unwrap();
    actor
        .request("insert Accommodations | Canada | London | Fairmont | 5")
        .unwrap();
    actor.request("delete t4").unwrap();
    assert_eq!(
        actor.request("commit").unwrap(),
        vec!["ok committed 2 mutation(s) in 1 maintenance pass; 2 event(s)"]
    );
    assert!(actor.request("delete t10").unwrap()[0].starts_with("ok deleted c4"));

    // Mid-stream, another malformed line: the error reply must not
    // disturb the feed (events already in flight may precede it).
    let mut reply = subs[0].request("delete nope").unwrap();
    assert_eq!(reply.pop().unwrap(), "error protocol: bad tuple id: nope");
    let early_events = reply; // whatever fan-out raced the reply block

    // The same three batches through a single-process session, rendering
    // events exactly as the daemon's fan-out does.
    let mut replay = FdSession::new(tourist_database());
    let mut expected: Vec<String> = Vec::new();
    let commit = replay
        .apply(Delta::Insert {
            rel: RelId(0),
            values: vec!["Chile".into(), "arid".into()],
        })
        .unwrap();
    expected.extend(event_lines(&commit.events, replay.db()));
    let mut batch = replay.begin();
    batch
        .insert(
            RelId(1),
            vec![
                "Canada".into(),
                "London".into(),
                "Fairmont".into(),
                5.into(),
            ],
        )
        .delete(TupleId(4));
    let commit = replay.commit(batch).unwrap();
    expected.extend(event_lines(&commit.events, replay.db()));
    let commit = replay.apply(Delta::Delete { tuple: TupleId(10) }).unwrap();
    expected.extend(event_lines(&commit.events, replay.db()));
    assert!(expected.len() >= 4, "the scenario must produce events");

    // Unsubscribing joins the forwarding thread after draining its
    // queue, so the reply block is preceded by every remaining event:
    // no sleeps, no polling, a complete feed per subscriber.
    let mut feeds: Vec<Vec<String>> = Vec::new();
    for (i, sub) in subs.iter_mut().enumerate() {
        let mut lines = sub.request("unsubscribe").unwrap();
        assert_eq!(lines.pop().unwrap(), format!("ok unsubscribed s{i}"));
        if i == 0 {
            let mut full = early_events.clone();
            full.extend(lines);
            feeds.push(full);
        } else {
            feeds.push(lines);
        }
    }
    assert_eq!(feeds[0], expected, "subscriber 0 diverged from the replay");
    assert_eq!(feeds[0], feeds[1], "subscribers 0 and 1 diverged");
    assert_eq!(feeds[1], feeds[2], "subscribers 1 and 2 diverged");

    // The served state equals the replay, byte for byte.
    let mut show = actor.request("show").unwrap();
    let status = show.pop().unwrap();
    let want: Vec<String> = replay
        .canonical_results()
        .iter()
        .map(|s| format!("  {}", s.label(replay.db())))
        .collect();
    assert_eq!(show, want, "served `show` diverged from the replay");
    assert_eq!(status, format!("ok {} result(s)", want.len()));
    let stats = actor.request("stats").unwrap();
    assert_eq!(
        stats.last().unwrap(),
        &format!("ok results={} passes=3 subscribers=0", replay.len())
    );
    // The enriched reply carries the session's operation counters.
    assert!(
        stats.iter().any(|l| l.starts_with("  jcc_checks=")),
        "{stats:?}"
    );

    // The wire shutdown path flushes and stops the daemon.
    assert_eq!(actor.request("shutdown").unwrap(), vec!["ok shutting down"]);
    server.wait().unwrap();
}

/// Concurrent clients commit through one shared session: every commit
/// lands in exactly one maintenance pass (passes == commits), and a
/// subscriber sees all of them.
#[test]
fn concurrent_commits_serialize_through_one_session() {
    let server = Server::start(FdSession::new(tourist_database()), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let mut watcher = connect(addr);
    assert_eq!(
        watcher.request("subscribe").unwrap(),
        vec!["ok subscribed s0"]
    );

    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.read_response().unwrap();
                for j in 0..3 {
                    // Unique countries: each insert yields one singleton
                    // result set, i.e. exactly one event.
                    let reply = client
                        .request(&format!("insert Climates | Nation-{w}-{j} | arid"))
                        .unwrap();
                    assert!(reply[0].starts_with("ok inserted"), "{reply:?}");
                }
                client.request("quit").unwrap();
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    // 12 commits, 12 maintenance passes — commits serialized, none
    // coalesced, none double-processed.
    let mut probe = connect(addr);
    let stats = probe.request("stats").unwrap();
    assert_eq!(
        stats.last().unwrap(),
        "ok results=18 passes=12 subscribers=1"
    );

    // The watcher received exactly one event line per commit.
    let mut feed = watcher.request("unsubscribe").unwrap();
    assert_eq!(feed.pop().unwrap(), "ok unsubscribed s0");
    assert_eq!(feed.len(), 12, "{feed:?}");
    assert!(feed.iter().all(|l| l.starts_with("event + {c")), "{feed:?}");
    let unique: std::collections::BTreeSet<&String> = feed.iter().collect();
    assert_eq!(unique.len(), 12, "every commit fanned out exactly once");

    server.stop().unwrap();
}

/// A subscriber whose socket died is reaped on the first failed write,
/// and the daemon keeps serving the remaining clients.
#[test]
fn dead_subscribers_are_reaped() {
    let server = Server::start(FdSession::new(tourist_database()), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let mut doomed = connect(addr);
    doomed.request("subscribe").unwrap();
    drop(doomed); // the socket closes without an unsubscribe

    let mut actor = connect(addr);
    // Commits keep flowing; the dead subscriber's forwarder reaps itself
    // on its first failed write (timing-dependent, so don't assert the
    // counter — assert the daemon stays healthy).
    for name in ["Chile", "Peru", "Bolivia"] {
        let reply = actor
            .request(&format!("insert Climates | {name} | arid"))
            .unwrap();
        assert!(reply[0].starts_with("ok inserted"), "{reply:?}");
    }
    let reply = actor.request("stats").unwrap();
    assert!(
        reply.last().unwrap().starts_with("ok results=9 passes=3"),
        "{reply:?}"
    );
    assert_eq!(actor.request("quit").unwrap(), vec!["ok bye"]);
    server.stop().unwrap();
}

/// Issues one HTTP/1.0 `GET path` against the metrics endpoint and
/// returns `(status_line, body)`.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut sock = std::net::TcpStream::connect(addr).expect("dial metrics endpoint");
    write!(sock, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut raw = String::new();
    sock.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or_default().to_owned();
    (status, body.to_owned())
}

/// The value of an exposition sample line `name value` (exact family
/// name or name-with-labels match).
fn sample_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| match l.split_once(' ') {
            Some((n, v)) if n == name => v.trim().parse().ok(),
            _ => None,
        })
}

/// The ISSUE acceptance scenario for the scrape path: a daemon with
/// `--metrics-addr`, a subscribed client, one commit. The HTTP endpoint
/// must serve a parseable exposition where `fd_commits_total`, the
/// per-phase commit histograms and `fd_events_pushed_total` all moved.
#[test]
fn metrics_endpoint_reflects_commits_over_real_sockets() {
    let server = Server::start_with(
        FdSession::new(tourist_database()),
        "127.0.0.1:0",
        ServeOptions {
            metrics_addr: Some("127.0.0.1:0".into()),
            log: false,
        },
    )
    .unwrap();
    let addr = server.addr();
    let maddr = server.metrics_addr().expect("metrics endpoint bound");

    let mut sub = connect(addr);
    assert_eq!(sub.request("subscribe").unwrap(), vec!["ok subscribed s0"]);
    let mut actor = connect(addr);
    assert_eq!(
        actor.request("insert Climates | Chile | arid").unwrap(),
        vec!["ok inserted c4 into Climates; 1 event(s)"]
    );
    // Unsubscribe joins the forwarder after it drained the queue, so
    // the push counter below is settled, not racing the scrape.
    let mut feed = sub.request("unsubscribe").unwrap();
    assert_eq!(feed.pop().unwrap(), "ok unsubscribed s0");
    assert_eq!(feed.len(), 1, "{feed:?}");

    let (status, body) = http_get(maddr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert_eq!(sample_value(&body, "fd_commits_total"), Some(1.0));
    assert_eq!(sample_value(&body, "fd_events_pushed_total"), Some(1.0));
    // Every commit phase recorded exactly one observation.
    for phase in ["validate", "maintain", "window", "fanout"] {
        let name = format!("fd_commit_{phase}_seconds_count");
        assert_eq!(sample_value(&body, &name), Some(1.0), "{name}\n{body}");
    }
    assert_eq!(sample_value(&body, "fd_commit_seconds_count"), Some(1.0));
    assert_eq!(
        sample_value(&body, "fd_serve_requests_total{command=\"insert\"}"),
        Some(1.0)
    );

    // Wrong path and wrong method are rejected, not served.
    let (status, _) = http_get(maddr, "/nope");
    assert!(status.contains("404"), "{status}");

    assert_eq!(actor.request("shutdown").unwrap(), vec!["ok shutting down"]);
    server.wait().unwrap();
}

/// Counters aggregate correctly across concurrent connections, and the
/// latency summaries stay internally consistent: p50 ≤ p99 ≤ max.
#[test]
fn metrics_aggregate_across_concurrent_connections() {
    let server = Server::start_with(
        FdSession::new(tourist_database()),
        "127.0.0.1:0",
        ServeOptions {
            metrics_addr: Some("127.0.0.1:0".into()),
            log: false,
        },
    )
    .unwrap();
    let addr = server.addr();
    let maddr = server.metrics_addr().expect("metrics endpoint bound");

    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.read_response().unwrap();
                for j in 0..3 {
                    client
                        .request(&format!("insert Climates | Land-{w}-{j} | arid"))
                        .unwrap();
                }
                client.request("quit").unwrap();
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    let (status, body) = http_get(maddr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert_eq!(sample_value(&body, "fd_commits_total"), Some(12.0));
    assert_eq!(
        sample_value(&body, "fd_serve_requests_total{command=\"insert\"}"),
        Some(12.0)
    );
    assert_eq!(
        sample_value(&body, "fd_serve_requests_total{command=\"quit\"}"),
        Some(4.0)
    );
    assert_eq!(sample_value(&body, "fd_serve_connections_total"), Some(4.0));
    assert_eq!(
        sample_value(&body, "fd_serve_connections_active"),
        Some(0.0)
    );
    // 12 inserts + 4 quits replied to (greetings are not requests).
    assert_eq!(
        sample_value(&body, "fd_serve_reply_seconds_count"),
        Some(16.0)
    );

    // Quantiles of every summary are monotone by construction.
    for family in [
        "fd_commit_maintain_seconds",
        "fd_commit_seconds",
        "fd_serve_reply_seconds",
    ] {
        let q = |quantile: &str| {
            sample_value(&body, &format!("{family}{{quantile=\"{quantile}\"}}"))
                .unwrap_or_else(|| panic!("{family} quantile {quantile} missing\n{body}"))
        };
        let (p50, p99, max) = (q("0.5"), q("0.99"), q("1"));
        assert!(p50 <= p99 && p99 <= max, "{family}: {p50} {p99} {max}");
        assert!(max > 0.0, "{family} recorded nothing");
    }

    server.stop().unwrap();
}

/// A client that sends a line longer than the daemon's 64 KiB cap gets
/// one `error` line and then EOF; the rejection is counted as a
/// protocol error, and other clients keep being served.
#[test]
fn an_over_long_line_is_rejected_and_the_connection_closed() {
    use std::io::BufRead as _;

    let server = Server::start_with(
        FdSession::new(tourist_database()),
        "127.0.0.1:0",
        ServeOptions {
            metrics_addr: Some("127.0.0.1:0".into()),
            log: false,
        },
    )
    .unwrap();
    let addr = server.addr();
    let maddr = server.metrics_addr().expect("metrics endpoint bound");

    let sock = std::net::TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut reader = std::io::BufReader::new(sock.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("greeting");
    assert!(line.starts_with("ok fd serve ("), "{line}");

    (&sock).write_all(&vec![b'x'; 100 * 1024]).expect("send");
    line.clear();
    reader.read_line(&mut line).expect("reply");
    assert_eq!(line, "error line too long\n");
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("EOF"), 0, "{line:?}");

    let mut other = connect(addr);
    let show = other.request("show").unwrap();
    assert_eq!(show.len(), 7, "{show:?}");
    assert_eq!(show.last().unwrap(), "ok 6 result(s)");

    let (_, body) = http_get(maddr, "/metrics");
    assert_eq!(
        sample_value(&body, "fd_serve_protocol_errors_total"),
        Some(1.0)
    );
    assert_eq!(other.request("shutdown").unwrap(), vec!["ok shutting down"]);
    server.wait().unwrap();
}

/// A `begin` block holds at most `MAX_PENDING_MUTATIONS` mutations: the
/// next one gets a typed error, is counted, and leaves the transaction
/// open, so `commit` still lands exactly the queued ones.
#[test]
fn an_over_full_transaction_refuses_mutations_and_stays_open() {
    use full_disjunction::core::serve::MAX_PENDING_MUTATIONS;

    let server = Server::start_with(
        FdSession::new(tourist_database()),
        "127.0.0.1:0",
        ServeOptions {
            metrics_addr: Some("127.0.0.1:0".into()),
            log: false,
        },
    )
    .unwrap();
    let addr = server.addr();
    let maddr = server.metrics_addr().expect("metrics endpoint bound");

    let mut client = connect(addr);
    assert_eq!(client.request("begin").unwrap().len(), 1);
    for i in 1..=MAX_PENDING_MUTATIONS {
        let reply = client
            .request(&format!("insert Climates | Land-{i} | arid"))
            .unwrap();
        assert_eq!(
            reply,
            vec![format!("ok queued insert into Climates ({i} pending)")]
        );
    }
    assert_eq!(
        client.request("insert Climates | Atlantis | arid").unwrap(),
        vec![format!(
            "error transaction too large ({MAX_PENDING_MUTATIONS} pending; commit or abort)"
        )]
    );
    let commit = client.request("commit").unwrap();
    assert!(
        commit[0].starts_with(&format!(
            "ok committed {MAX_PENDING_MUTATIONS} mutation(s) in 1 maintenance pass"
        )),
        "{commit:?}"
    );
    let show = client.request("show").unwrap();
    assert_eq!(
        show.last().unwrap(),
        &format!("ok {} result(s)", 6 + MAX_PENDING_MUTATIONS)
    );

    let (_, body) = http_get(maddr, "/metrics");
    assert_eq!(
        sample_value(&body, "fd_serve_batch_rejections_total"),
        Some(1.0)
    );
    assert_eq!(
        client.request("shutdown").unwrap(),
        vec!["ok shutting down"]
    );
    server.wait().unwrap();
}

/// The daemon serves at most `MAX_CONNECTIONS` connections at once: one
/// more gets `error too many connections` and is closed, the held ones
/// keep working, and closing one frees its slot.
#[test]
fn connections_over_the_cap_are_refused_and_counted() {
    use full_disjunction::core::serve::MAX_CONNECTIONS;
    use std::io::BufRead as _;

    let server = Server::start_with(
        FdSession::new(tourist_database()),
        "127.0.0.1:0",
        ServeOptions {
            metrics_addr: Some("127.0.0.1:0".into()),
            log: false,
        },
    )
    .unwrap();
    let addr = server.addr();
    let maddr = server.metrics_addr().expect("metrics endpoint bound");

    // Each greeting proves its connection thread is running.
    let mut held: Vec<Client> = (0..MAX_CONNECTIONS).map(|_| connect(addr)).collect();

    let reader = |sock: &std::net::TcpStream| {
        sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        std::io::BufReader::new(sock.try_clone().unwrap())
    };
    let over = std::net::TcpStream::connect(addr).expect("connect over the cap");
    let mut over = reader(&over);
    let mut line = String::new();
    over.read_line(&mut line).expect("refusal");
    assert_eq!(line, "error too many connections\n");
    line.clear();
    assert_eq!(over.read_line(&mut line).expect("EOF"), 0, "{line:?}");

    let show = held[0].request("show").unwrap();
    assert_eq!(show.last().unwrap(), "ok 6 result(s)");
    let (_, body) = http_get(maddr, "/metrics");
    assert_eq!(
        sample_value(&body, "fd_serve_connections_rejected_total"),
        Some(1.0)
    );

    // A closed connection frees its slot once its thread has finished.
    held.pop();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let sock = std::net::TcpStream::connect(addr).expect("connect");
        let mut line = String::new();
        reader(&sock).read_line(&mut line).expect("first line");
        if line.starts_with("ok fd serve (") {
            break;
        }
        assert_eq!(line, "error too many connections\n");
        assert!(
            std::time::Instant::now() < deadline,
            "the freed slot was never reused"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    assert_eq!(
        held[0].request("shutdown").unwrap(),
        vec!["ok shutting down"]
    );
    server.wait().unwrap();
}
