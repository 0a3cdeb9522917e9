//! A minimal HTTP/1.1 responder serving the metrics registry in
//! Prometheus text exposition format, plus `/healthz` and `/tracez`.
//!
//! Hand-rolled over a `std::net::TcpStream` — the build is `--offline`,
//! so no hyper/axum. `Connection: close`, one request per connection: a
//! scrape every few seconds is the entire expected load. There is no
//! listener here: a server role's one listener (`sdci_net::Endpoint`)
//! hands over every connection that opens with `GET `.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest request head we will buffer before giving up on a client.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Answers the one `GET` request arriving on `stream` — `/metrics` (and
/// `/`) with the global registry as Prometheus text, `/healthz`,
/// `/tracez` — and closes the connection.
///
/// # Errors
///
/// Propagates socket failures; the caller has nothing to do with them
/// but drop the stream.
pub fn serve_http(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;

    // Read until the end of the request head; the body (if any) is
    // irrelevant for GET and we never read it.
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    while !head_complete(&head) {
        if head.len() > MAX_REQUEST_BYTES {
            return respond(&mut stream, "400 Bad Request", "request head too large\n");
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(()); // client went away
        }
        head.extend_from_slice(&buf[..n]);
    }

    let request_line = head
        .split(|&b| b == b'\n')
        .next()
        .map(|l| String::from_utf8_lossy(l).trim_end().to_string())
        .unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    if method != "GET" {
        return respond(&mut stream, "405 Method Not Allowed", "GET only\n");
    }
    match path {
        "/" | "/metrics" => {
            let body = crate::metrics::registry().render_prometheus();
            let mut response = String::with_capacity(body.len() + 128);
            response.push_str("HTTP/1.1 200 OK\r\n");
            response.push_str("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n");
            response.push_str(&format!("Content-Length: {}\r\n", body.len()));
            response.push_str("Connection: close\r\n\r\n");
            response.push_str(&body);
            stream.write_all(response.as_bytes())
        }
        "/tracez" => {
            let body = crate::trace::render_tracez();
            let response = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            );
            stream.write_all(response.as_bytes())
        }
        "/healthz" => match crate::health::check() {
            Ok(()) => respond(&mut stream, "200 OK", "ok\n"),
            Err(failures) => {
                let mut body = String::new();
                for (name, reason) in failures {
                    body.push_str(&format!("not ready: {name}: {reason}\n"));
                }
                respond(&mut stream, "503 Service Unavailable", &body)
            }
        },
        _ => respond(&mut stream, "404 Not Found", "try /metrics, /tracez, or /healthz\n"),
    }
}

fn head_complete(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n")
}

fn respond(stream: &mut TcpStream, status: &str, body: &str) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::{SocketAddr, TcpListener};

    fn http_get(addr: SocketAddr, path: &str, method: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("{method} {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut body = String::new();
        // Skip headers, then read to EOF (Connection: close).
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 {
            if line == "\r\n" || line == "\n" {
                break;
            }
            line.clear();
        }
        reader.read_to_string(&mut body).unwrap();
        (status.trim_end().to_string(), body)
    }

    #[test]
    fn serves_prometheus_text_and_handles_bad_requests() {
        crate::metrics::registry().counter("sdci_obs_test_http_total").add(9);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming().map_while(Result::ok) {
                let _ = serve_http(stream);
            }
        });

        let (status, body) = http_get(addr, "/metrics", "GET");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("sdci_obs_test_http_total 9"), "{body}");

        let (status, _) = http_get(addr, "/", "GET");
        assert!(status.contains("200"), "{status}");

        let (status, _) = http_get(addr, "/nope", "GET");
        assert!(status.contains("404"), "{status}");

        let (status, _) = http_get(addr, "/metrics", "POST");
        assert!(status.contains("405"), "{status}");

        // /healthz: ready with no failing probes, 503 once one fails.
        let (status, body) = http_get(addr, "/healthz", "GET");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");
        crate::health::register_probe("expose.test", || Err("down for the test".into()));
        let (status, body) = http_get(addr, "/healthz", "GET");
        assert!(status.contains("503"), "{status}");
        assert!(body.contains("expose.test: down for the test"), "{body}");
        crate::health::register_probe("expose.test", || Ok(()));

        // /tracez: well-formed JSON document with the span arrays.
        let _rate = crate::trace::test_support::rate_lock();
        crate::trace::set_sample_every(1);
        drop(crate::trace::root("expose.test.span"));
        let (status, body) = http_get(addr, "/tracez", "GET");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"spans\":["), "{body}");
        assert!(body.contains("expose.test.span"), "{body}");
    }
}
