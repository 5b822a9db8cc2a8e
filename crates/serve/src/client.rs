//! A small blocking client for the wire protocol.
//!
//! Used by the loopback tests, the `loadgen` bench driver, and the CLI
//! probe. Requests can be pipelined: [`Client::enqueue`] buffers frames
//! locally, [`Client::flush`] writes them in one syscall, and
//! [`Client::recv`] reads responses back in request order. The client
//! keeps a rolling FNV-1a digest of every raw response frame it receives
//! ([`Client::digest`]), which is the bit-exactness witness the
//! determinism checks compare across runs.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::wire::{
    decode_header, decode_response, digest_bytes, encode_request, Header, Request, Response,
    DIGEST_SEED, HEADER_LEN,
};

/// Bytes one socket read may return.
const READ_CHUNK: usize = 16 * 1024;

/// Blocking protocol client.
pub struct Client {
    stream: TcpStream,
    next_id: u32,
    out: Vec<u8>,
    /// Received bytes; frames before `consumed` have been returned.
    in_buf: Vec<u8>,
    consumed: usize,
    /// Socket read target, zeroed once per client.
    chunk: Box<[u8]>,
    digest: u64,
}

impl Client {
    /// Connects (TCP, nodelay) without sending anything.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            next_id: 0,
            out: Vec::new(),
            in_buf: Vec::new(),
            consumed: 0,
            chunk: vec![0; READ_CHUNK].into_boxed_slice(),
            digest: DIGEST_SEED,
        })
    }

    /// Rolling FNV-1a digest over every raw response frame received.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Bounds how long [`Client::recv`] blocks in one socket read before
    /// failing with `WouldBlock`/`TimedOut`; `None` blocks without limit.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Buffers one request frame locally and returns its request id
    /// (ids are assigned sequentially from 1).
    pub fn enqueue(&mut self, request: &Request) -> u32 {
        self.next_id = self.next_id.wrapping_add(1);
        encode_request(&mut self.out, self.next_id, request);
        self.next_id
    }

    /// Writes all buffered frames.
    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.out)?;
        self.out.clear();
        Ok(())
    }

    /// Blocks until one complete response frame arrives and decodes it.
    /// Unsolicited frames (backpressure, id 0) are returned like any
    /// other; callers that pipeline within the server's queue limit will
    /// only ever see their own ids, in order.
    ///
    /// Each frame is digested and decoded where it lies in the receive
    /// buffer; consumed frames are dropped only before the next socket
    /// read.
    pub fn recv(&mut self) -> io::Result<(u32, Response)> {
        loop {
            let pending = self.in_buf.get(self.consumed..).unwrap_or(&[]);
            if let Some((header, frame)) = peek_frame(pending)? {
                self.consumed += frame.len();
                self.digest = digest_bytes(self.digest, frame);
                let payload = frame.get(HEADER_LEN..).unwrap_or(&[]);
                let response = decode_response(&header, payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.message()))?;
                return Ok((header.request_id, response));
            }
            self.in_buf.drain(..self.consumed);
            self.consumed = 0;
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            self.in_buf
                .extend_from_slice(self.chunk.get(..n).unwrap_or(&[]));
        }
    }

    /// Sends one request and blocks for its response.
    pub fn call(&mut self, request: &Request) -> io::Result<(u32, Response)> {
        self.enqueue(request);
        self.flush()?;
        self.recv()
    }

    /// Handshake: seeds the connection's noise RNG on the server.
    pub fn hello(&mut self, seed: u64) -> io::Result<Response> {
        let (_, resp) = self.call(&Request::Hello { seed })?;
        Ok(resp)
    }

    /// Asks the server to drain and shut down; returns the ack.
    pub fn shutdown_server(&mut self) -> io::Result<Response> {
        let (_, resp) = self.call(&Request::Shutdown)?;
        Ok(resp)
    }
}

/// The first complete frame in `buf`, as its header and its bytes, or
/// `None` while the frame is still incomplete.
fn peek_frame(buf: &[u8]) -> io::Result<Option<(Header, &[u8])>> {
    match decode_header(buf) {
        Ok(Some(h)) => Ok(buf
            .get(..HEADER_LEN + h.payload_len as usize)
            .map(|f| (h, f))),
        Ok(None) => Ok(None),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.message())),
    }
}
