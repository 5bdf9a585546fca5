//! The generator's protocol client.
//!
//! Unlike the repository's example client (a default 8 KiB `BufWriter`,
//! Nagle left on), this one encodes each frame into a reused buffer and
//! hands it to the socket in exactly one `write`, with `TCP_NODELAY`
//! set, so a frame never waits on a delayed ACK at the client's end and
//! the round trips measure the daemon.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sunder_shard::frame::{decode_server, read_raw};
use sunder_shard::{ClientFrame, ServerFrame, PROTOCOL_VERSION};

/// Reply frames above this size are refused (a storm reply is ~83 KB).
const MAX_REPLY_BYTES: u32 = 64 << 20;

/// Encodes `frame` into `buf` and writes it with a single `write_all`
/// on `w`; `w` sees one `write` call per frame unless the transport
/// accepts fewer bytes than offered.
pub fn send_frame<W: Write>(
    w: &mut W,
    buf: &mut Vec<u8>,
    frame: &ClientFrame,
) -> std::io::Result<()> {
    buf.clear();
    frame.write_to(buf)?;
    w.write_all(buf)
}

/// One protocol connection.
pub struct Conn {
    sock: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` set.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let sock = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        sock.set_nodelay(true).map_err(|e| e.to_string())?;
        sock.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(256 << 10, sock.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            sock,
            reader,
            buf: Vec::new(),
        })
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &ClientFrame) -> Result<(), String> {
        send_frame(&mut self.sock, &mut self.buf, frame).map_err(|e| format!("send: {e}"))
    }

    /// Reads one raw reply body (`read_raw`).
    pub fn read_body(&mut self) -> Result<Vec<u8>, String> {
        read_raw(&mut self.reader, MAX_REPLY_BYTES)
            .map_err(|e| format!("read reply: {e}"))?
            .ok_or_else(|| "daemon closed the connection".to_string())
    }

    /// Reads and decodes one reply.
    pub fn recv(&mut self) -> Result<ServerFrame, String> {
        let body = self.read_body()?;
        decode_server(&body).map_err(|e| format!("decode reply: {e}"))
    }

    /// `Hello` → `HelloAck`; returns the pinned epoch.
    pub fn hello(&mut self, tenant: &str) -> Result<u64, String> {
        self.send(&ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_string(),
        })?;
        match self.recv()? {
            ServerFrame::HelloAck { epoch, .. } => Ok(epoch),
            ServerFrame::Error { code, message } => {
                Err(format!("session refused ({code}): {message}"))
            }
            other => Err(format!("unexpected handshake reply {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts `write` calls and collects the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_exactly_one_write() {
        let frames = [
            ClientFrame::Hello {
                version: PROTOCOL_VERSION,
                tenant: "bench-0".into(),
            },
            ClientFrame::Chunk(vec![b'x'; 16 << 10]),
            ClientFrame::Chunk(vec![b'y'; 256 << 10]),
            ClientFrame::Chunk(Vec::new()),
            ClientFrame::Finish,
        ];
        let mut buf = Vec::new();
        for frame in &frames {
            let mut w = CountingWriter::default();
            send_frame(&mut w, &mut buf, frame).unwrap();
            assert_eq!(w.writes, 1, "{frame:?}");
            let mut expected = Vec::new();
            frame.write_to(&mut expected).unwrap();
            assert_eq!(w.bytes, expected);
        }
    }

    #[test]
    fn the_library_writer_alone_splits_frames() {
        // What the one-buffer encoding avoids: `write_to` on a raw
        // transport issues the length prefix, opcode and payload as
        // separate writes, and a socket without nodelay can hold the
        // payload segment behind the header's delayed ACK.
        let mut w = CountingWriter::default();
        ClientFrame::Chunk(vec![0; 1024]).write_to(&mut w).unwrap();
        assert!(w.writes > 1);
    }
}
