//! A blocking line-protocol client, used by `remedy client`, the smoke
//! test, and the serve benchmarks.

use remedy_obs::Scope as ObsScope;
use remedy_pipeline::json::{self, Value};
use remedy_pipeline::{ErrorKind, PipelineError, RetryPolicy};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One connection to a running server. Requests are answered strictly
/// in order, so a blocking send-then-read round trip is all it takes.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7878`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        // one-line requests must not sit in Nagle's buffer waiting for
        // a delayed ACK
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// [`Client::connect`] with bounded exponential backoff: a refused
    /// or unreachable address is retried under the given
    /// [`RetryPolicy`] (deterministically jittered, same schedule the
    /// pipeline engine uses), so callers racing daemon startup — the
    /// CLI client, smoke tests — don't need hand-rolled sleep loops.
    pub fn connect_with_retry(addr: &str, policy: &RetryPolicy) -> Result<Client, PipelineError> {
        policy.run("client.connect", &ObsScope::disabled(), || {
            Client::connect(addr)
                .map_err(|e| PipelineError::transient(format!("connect {addr}: {e}")))
        })
    }

    /// Sends one request line and returns the raw response line.
    ///
    /// The request and its newline go out in one write. A server that
    /// refuses a connection (the `--max-conns` gate) writes its
    /// `overloaded` line and closes at once; a request arriving after
    /// that close is answered with a reset, so a second write for the
    /// newline would fail before the typed reply was ever read. For the
    /// same reason a failed write still reads a reply line already
    /// pending on the socket, and only reports the write error when
    /// there is none.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        let sent = self.writer.write_all(request.as_bytes());
        let mut response = String::new();
        let read = self.reader.read_line(&mut response);
        match (sent, read) {
            (_, Ok(n)) if n > 0 => {}
            (Err(e), _) | (Ok(()), Err(e)) => return Err(e),
            (Ok(()), Ok(_)) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }

    /// Sends one request and parses the response. An `"ok":false`
    /// response comes back as the typed error its `"kind"` token names,
    /// so callers branch on [`ErrorKind`] exactly like pipeline code.
    pub fn call(&mut self, line: &str) -> Result<Value, PipelineError> {
        let raw = self.request_line(line)?;
        let response =
            json::parse(&raw).map_err(|e| e.map_message(|m| format!("malformed response: {m}")))?;
        match response.field("ok").and_then(Value::as_bool) {
            Some(true) => Ok(response),
            Some(false) => {
                let kind = response
                    .field("kind")
                    .and_then(Value::as_str)
                    .and_then(ErrorKind::parse)
                    .unwrap_or(ErrorKind::Fatal);
                let message = response
                    .field("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown error")
                    .to_string();
                Err(PipelineError::new(kind, message))
            }
            None => Err(PipelineError::corrupt("response missing `ok` field")),
        }
    }
}
