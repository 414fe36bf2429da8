//! The `--max-conns` accept gate answers a refused connection with one
//! transient `overloaded` line and closes it. That reply must reach the
//! client however late its request arrives — including after the close,
//! when the server's kernel answers the request with a reset.

use remedy_pipeline::ErrorKind;
use remedy_serve::{Client, ServeOptions, Server};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;

#[test]
fn refused_client_reads_overloaded_even_when_it_writes_after_the_close() {
    let server = Server::bind(ServeOptions {
        max_conns: 1,
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut first = Client::connect(&addr).unwrap();
    first.call("{\"op\":\"stats\"}").unwrap();
    let mut late = Client::connect(&addr).unwrap();
    // the accept loop sheds one connection at a time, in order: once a
    // later connection has read its own `overloaded` line, `late` has
    // already been answered and closed
    let mut probe = BufReader::new(TcpStream::connect(&addr).unwrap());
    let mut line = String::new();
    probe.read_line(&mut line).unwrap();
    assert!(line.contains("overloaded"), "{line}");

    let err = late.call("{\"op\":\"stats\"}").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Transient, "{err}");
    assert!(err.message().contains("overloaded"), "{err}");

    // shedding never stalled the accept loop: the shutdown still drains
    first.call("{\"op\":\"shutdown\"}").unwrap();
    handle.join().unwrap().unwrap();
}
