//! Wire-protocol fuzz property: whatever one request line a client sends —
//! a real `ping`/`stats`/`metrics` line in any JSON layout, any truncation
//! of one, a byte-mutated copy, random non-UTF-8 bytes, or a line past
//! [`MAX_REQUEST_LINE`] — the daemon answers with at most one line, that
//! line is a JSON object with a boolean `ok`, and a ping on a fresh
//! connection is still answered. A line that is not UTF-8 gets exactly
//! one reply, a refusal. No request handler may panic.
//!
//! One daemon serves every case over a Unix socket, one connection at a
//! time. Each case writes its bytes, half-closes the write side and reads
//! to EOF. A case line never holds a `\n`, so it is exactly one request.
//! Lines that decode to `shutdown`, `eval` or `experiment` are skipped:
//! they stop the daemon or run simulations, which is not what this tests.

use proptest::prelude::*;
use proptest::TestRng;
use spt::Json;
use spt_serve::{client, Request, ServeConfig, Server, MAX_REQUEST_LINE};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::OnceLock;
use std::time::Duration;

/// Ops the fuzzer starts from: cheap, side-effect free, and each answered
/// from daemon state alone.
const OPS: [&str; 3] = ["ping", "stats", "metrics"];

/// Members a request may carry beside its `op`; the daemon ignores them.
const EXTRA: [&str; 5] = [
    r#""pad":1"#,
    r#""x":null"#,
    r#""fuel":[]"#,
    r#""o":{"a":true}"#,
    r#""s":"é \" \\ é""#,
];

/// JSON whitespace bar `\n`.
const SPACE: [&str; 3] = [" ", "\t", "\r"];

/// Bytes a mutation writes: JSON structure, the letters of the op names and
/// literals, digits and number signs, escapes, whitespace and a control
/// byte. No `\n`: that would split the case into two requests.
const ALPHABET: &[u8] = b"{}[]\":,\\ \t\r0123456789-+.eEtrufalsnpigomc/bxz\x01";

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Socket path of the one daemon every case talks to.
static ADDR: OnceLock<String> = OnceLock::new();

fn pick<'a, T>(rng: &mut TestRng, xs: &'a [T]) -> &'a T {
    &xs[rng.below(xs.len() as u64) as usize]
}

/// Up to two bytes of JSON whitespace.
fn ws(rng: &mut TestRng) -> String {
    (0..rng.below(3)).map(|_| *pick(rng, &SPACE)).collect()
}

/// A valid request line for one of [`OPS`]: random whitespace between its
/// tokens, and maybe an extra member before or after the `op`.
fn request_line(rng: &mut TestRng) -> Vec<u8> {
    let op = format!("\"op\"{}:{}\"{}\"", ws(rng), ws(rng), pick(rng, &OPS));
    let mut members = vec![op];
    if rng.below(2) == 1 {
        let extra = pick(rng, &EXTRA).to_string();
        members.insert(rng.below(2) as usize, extra);
    }
    let body = members.join(&format!("{},{}", ws(rng), ws(rng)));
    let (a, b, c, d) = (ws(rng), ws(rng), ws(rng), ws(rng));
    format!("{a}{{{b}{body}{c}}}{d}").into_bytes()
}

/// One case's request bytes, and whether they exceed the line cap.
fn case_line(rng: &mut TestRng) -> (Vec<u8>, bool) {
    let base = request_line(rng);
    let line = match rng.below(5) {
        0 => base,
        1 => base[..rng.below(base.len() as u64) as usize].to_vec(),
        2 => {
            let mut line = base;
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(line.len() as u64 + 1) as usize;
                let byte = *pick(rng, ALPHABET);
                match rng.below(3) {
                    0 if at < line.len() => line[at] = byte,
                    1 if at < line.len() => {
                        line.remove(at);
                    }
                    _ => line.insert(at, byte),
                }
            }
            line
        }
        3 => {
            let mut line: Vec<u8> = (0..1 + rng.below(64))
                .map(|_| rng.next_u64() as u8)
                .filter(|&b| b != b'\n')
                .collect();
            // One lone continuation byte keeps it from being UTF-8.
            line.insert(rng.below(line.len() as u64 + 1) as usize, 0x80);
            line
        }
        _ => {
            let len = MAX_REQUEST_LINE + rng.below(64) as usize;
            let line = (0..len).map(|_| *pick(rng, ALPHABET)).collect();
            return (line, true);
        }
    };
    (line, false)
}

/// The request the daemon would decode `line` into, if any.
fn decoded(line: &[u8]) -> Option<Request> {
    let text = std::str::from_utf8(line).ok()?;
    Request::from_json(&Json::parse(text.trim()).ok()?).ok()
}

/// Send `line` on a fresh connection, half-close and read to EOF. The
/// daemon may close on an oversized line before the client has written
/// all of it, so write and read errors end the exchange without failing
/// it: what was read by then is the reply.
fn exchange(addr: &str, line: &[u8]) -> Vec<u8> {
    let mut stream = UnixStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
    stream.set_write_timeout(Some(IO_TIMEOUT)).unwrap();
    let _ = stream.write_all(line);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    reply
}

fn ping_ok(addr: &str) -> bool {
    client::request(addr, &Json::obj().with("op", "ping"))
        .is_ok_and(|r| r.payload.as_str() == Some("pong"))
}

/// One case: send `line`, check the reply, then check the daemon still
/// answers a ping.
fn check(addr: &str, line: &[u8], too_large: bool) -> Result<(), TestCaseError> {
    let reply = exchange(addr, line);
    let text = String::from_utf8_lossy(&reply);
    let lines: Vec<&str> = text.split_terminator('\n').collect();
    prop_assert!(
        lines.len() <= 1 && (reply.is_empty() || reply.ends_with(b"\n")),
        "more than one reply line, or an unterminated one: {:?}",
        text
    );
    if too_large {
        prop_assert_eq!(lines, [r#"{"ok":false,"error":"too_large"}"#]);
    } else if std::str::from_utf8(line).is_err() {
        prop_assert_eq!(
            lines,
            [r#"{"ok":false,"error":"request line is not UTF-8"}"#]
        );
    } else if let Some(reply_line) = lines.first() {
        let doc = Json::parse(reply_line);
        prop_assert!(
            doc.as_ref()
                .is_ok_and(|d| d.get("ok").and_then(Json::as_bool).is_some()),
            "reply is not an object with a boolean ok: {:?}",
            reply_line
        );
    }
    prop_assert!(
        ping_ok(addr),
        "no pong after {:?}",
        String::from_utf8_lossy(line)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    fn any_request_line_gets_at_most_one_well_formed_reply(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let (line, too_large) = case_line(&mut rng);
        prop_assume!(!matches!(
            decoded(&line),
            Some(Request::Shutdown | Request::Eval { .. } | Request::Experiment(_))
        ));
        check(ADDR.get().unwrap(), &line, too_large)?;
    }
}

#[test]
fn fuzzed_request_lines_get_well_formed_replies_and_panic_nothing() {
    let sock = std::env::temp_dir().join(format!("spt-prop-wire-{}.sock", std::process::id()));
    let addr = ADDR.get_or_init(|| sock.to_str().unwrap().to_string());
    let server = Server::start(&ServeConfig {
        listen: addr.clone(),
        read_timeout: IO_TIMEOUT,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    // Every truncation of every compact request line, then the random
    // cases.
    for op in OPS {
        let base = format!(r#"{{"op":"{op}"}}"#);
        for cut in 0..base.len() {
            if let Err(e) = check(addr, &base.as_bytes()[..cut], false) {
                panic!("{e:?}");
            }
        }
    }
    any_request_line_gets_at_most_one_well_formed_reply();
    let metrics = client::request(addr, &Json::obj().with("op", "metrics")).unwrap();
    let text = metrics.payload.as_str().expect("metrics payload is text");
    let scrape = spt_metrics::parse_exposition(text).unwrap();
    assert_eq!(scrape.get("spt_panics_total").unwrap().value, 0.0);
    server.shutdown();
}
