//! Minimal HTTP/1.1 scrape endpoint: `GET /metrics` returns the
//! Prometheus text exposition, nothing else is served.
//!
//! This is deliberately not a web server: one thread blocked in `accept`
//! and woken on stop by a connection to its own address (the same
//! [`accept_until_stop`] discipline as the protocol listener's leading
//! worker), connections handled inline by that thread because a scrape
//! is a render of in-memory atomics and takes microseconds, and every
//! response closes the connection. Stock Prometheus speaks exactly this
//! much HTTP.

use crate::{accept_until_stop, Shared};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::time::Duration;

/// Per-scrape socket timeout: generous for a scraper, short enough that
/// a stuck client cannot wedge the (single-threaded) scrape loop.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// Serve scrapes on `listener` until the daemon stops.
pub(crate) fn scrape_loop(listener: TcpListener, shared: &Shared) {
    accept_until_stop(
        shared,
        || listener.accept(),
        |(stream, _)| {
            // One slow scraper must not take the endpoint down with it;
            // errors just drop the connection.
            let _ = serve_scrape(stream, shared);
            ControlFlow::<()>::Continue(())
        },
    );
}

/// Read one request head, answer it, close.
fn serve_scrape(mut stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(SCRAPE_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_TIMEOUT))?;

    let head = read_head(&mut stream)?;
    let mut first = head.lines().next().unwrap_or("").split_whitespace();
    let method = first.next().unwrap_or("");
    let path = first.next().unwrap_or("");

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else if path == "/metrics" {
        (
            "200 OK",
            // The Prometheus text exposition content type, version 0.0.4.
            "text/plain; version=0.0.4; charset=utf-8",
            shared.metrics_text(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try GET /metrics\n".to_string(),
        )
    };

    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Read until the blank line ending the request head. Request bodies are
/// ignored (GET has none; anything else is refused anyway).
fn read_head(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        if head.len() > 16 * 1024 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        match stream.read(&mut byte)? {
            0 => break, // client closed early
            _ => head.push(byte[0]),
        }
    }
    Ok(String::from_utf8_lossy(&head).into_owned())
}
