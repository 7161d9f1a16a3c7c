//! Minimal client side of the `spt-serve` protocol, shared by the
//! `spt-bench` binaries' `--server` mode and `spt-serve --connect`.

use crate::Conn;
use spt::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Default client-side timeout for one request/response exchange.
/// Generous because a cold full-scale sweep takes minutes.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(1800);

fn connect(addr: &str, timeout: Duration) -> Result<Conn, String> {
    let conn = if addr.contains('/') {
        Conn::Unix(
            UnixStream::connect(addr)
                .map_err(|e| format!("cannot connect to unix socket {addr}: {e}"))?,
        )
    } else {
        Conn::Tcp(TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?)
    };
    conn.configure(timeout)
        .map_err(|e| format!("cannot configure connection: {e}"))?;
    Ok(conn)
}

/// A successful server response: how it was served, plus the payload.
#[derive(Clone, Debug)]
pub struct Response {
    pub served: String,
    pub payload: Json,
}

/// Send one request line to `addr` and decode the response line.
/// Protocol-level refusals (`{"ok":false}`) come back as `Err`.
pub fn request_with_timeout(
    addr: &str,
    body: &Json,
    timeout: Duration,
) -> Result<Response, String> {
    let conn = connect(addr, timeout)?;
    let mut line = body.dump();
    line.push('\n');
    let mut writer = &conn;
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot send request: {e}"))?;
    // One request per connection: the half-close lets the daemon's worker
    // see the end of the connection as soon as it has replied. It fails
    // only when the daemon already closed (say, after a `busy` reply),
    // and then the reply is still there to read.
    let _ = conn.shutdown_write();

    let mut reply = String::new();
    BufReader::new(&conn)
        .read_line(&mut reply)
        .map_err(|e| format!("cannot read response: {e}"))?;
    if reply.trim().is_empty() {
        return Err("server closed the connection without responding".into());
    }
    let doc = Json::parse(reply.trim()).map_err(|e| format!("bad response JSON: {e}"))?;
    // Move the fields out of the parsed object: a payload can be kilobytes
    // of tree, and the response is the only owner it needs.
    let mut pairs = match doc {
        Json::Object(pairs) => pairs,
        _ => Vec::new(),
    };
    let mut take = |key: &str| {
        let i = pairs.iter().position(|(k, _)| k == key)?;
        Some(pairs.remove(i).1)
    };
    let text = |v: Option<Json>, default: &str| match v {
        Some(Json::Str(s)) => s,
        _ => default.to_string(),
    };
    match take("ok").as_ref().and_then(Json::as_bool) {
        Some(true) => Ok(Response {
            served: text(take("served"), "unknown"),
            payload: take("payload").unwrap_or(Json::Null),
        }),
        Some(false) => Err(text(take("error"), "unspecified server error")),
        None => Err("response missing boolean key \"ok\"".into()),
    }
}

/// [`request_with_timeout`] with the default timeout.
pub fn request(addr: &str, body: &Json) -> Result<Response, String> {
    request_with_timeout(addr, body, DEFAULT_TIMEOUT)
}
