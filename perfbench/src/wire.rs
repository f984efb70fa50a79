//! The client side of the wire path: raw frames over one connection, the
//! answer check, and (when tracing) the replay of each server stage on the
//! same frame.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use hist_core::{Interval, Synopsis};
use hist_net::proto::decode_response_frame;
use hist_net::{
    check_envelope, decode_request, encode_request, encode_response, read_message, write_message,
    NetError, NetResult, Request, Response, DEFAULT_MAX_FRAME_BYTES, LENGTH_PREFIX_BYTES,
};
use hist_serve::StoreMap;

use crate::trace;

/// One client connection carrying pipelined frames.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> NetResult<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    pub fn send(&mut self, message: &[u8]) -> NetResult<()> {
        write_message(&mut self.writer, message)
    }

    /// Writes several messages with one call.
    pub fn send_all(&mut self, messages: &[u8]) -> NetResult<()> {
        self.writer.write_all(messages)?;
        Ok(())
    }

    /// Reads one answer frame (the bytes after its length prefix).
    pub fn recv(&mut self) -> NetResult<Vec<u8>> {
        read_message(&mut self.reader, 2 * DEFAULT_MAX_FRAME_BYTES)?.ok_or(NetError::Io(
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed the connection"),
        ))
    }
}

/// The operation a batch request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Cdf,
    Quantile,
    Mass,
}

impl Op {
    pub const ALL: [Op; 3] = [Op::Cdf, Op::Quantile, Op::Mass];

    pub fn name(self) -> &'static str {
        match self {
            Op::Cdf => "cdf",
            Op::Quantile => "quantile",
            Op::Mass => "mass",
        }
    }

    /// The span name of this op's kernel replay.
    pub fn kernel_span(self) -> &'static str {
        match self {
            Op::Cdf => "core.kernel.cdf",
            Op::Quantile => "core.kernel.quantile",
            Op::Mass => "core.kernel.mass",
        }
    }
}

/// A batch request's arguments in the kernel's own types.
pub enum Args {
    Cdf(Vec<usize>),
    Quantile(Vec<f64>),
    Mass(Vec<Interval>),
}

impl Args {
    pub fn of(request: &Request) -> Option<(&str, Args)> {
        match request {
            Request::CdfBatch { key, xs } => {
                Some((key, Args::Cdf(xs.iter().map(|&x| x as usize).collect())))
            }
            Request::QuantileBatch { key, ps } => Some((key, Args::Quantile(ps.clone()))),
            Request::MassBatch { key, ranges } => Some((
                key,
                Args::Mass(
                    ranges
                        .iter()
                        .map(|&(a, b)| Interval::new(a as usize, b as usize).ok())
                        .collect::<Option<_>>()?,
                ),
            )),
            _ => None,
        }
    }

    pub fn op(&self) -> Op {
        match self {
            Args::Cdf(_) => Op::Cdf,
            Args::Quantile(_) => Op::Quantile,
            Args::Mass(_) => Op::Mass,
        }
    }

    /// Runs the batch kernel only, discarding the answer.
    pub fn kernel(&self, synopsis: &Synopsis) {
        use std::hint::black_box;
        match self {
            Args::Cdf(xs) => drop(black_box(synopsis.cdf_batch(xs))),
            Args::Quantile(ps) => drop(black_box(synopsis.quantile_batch(ps))),
            Args::Mass(ranges) => drop(black_box(synopsis.mass_batch(ranges))),
        }
    }

    /// The batch kernel's answer, as raw bits (indices for quantiles).
    pub fn run(&self, synopsis: &Synopsis) -> hist_core::Result<Vec<u64>> {
        Ok(match self {
            Args::Cdf(xs) => synopsis.cdf_batch(xs)?.iter().map(|v| v.to_bits()).collect(),
            Args::Quantile(ps) => synopsis.quantile_batch(ps)?.iter().map(|&i| i as u64).collect(),
            Args::Mass(ranges) => {
                synopsis.mass_batch(ranges)?.iter().map(|v| v.to_bits()).collect()
            }
        })
    }
}

/// An answer reduced to its epoch and raw bits, or `None` for an error
/// frame or a kind that answers no batch.
pub fn answer_bits(response: &Response) -> Option<(Op, u64, Vec<u64>)> {
    match response {
        Response::CdfBatch { epoch, values } => {
            Some((Op::Cdf, *epoch, values.iter().map(|v| v.to_bits()).collect()))
        }
        Response::QuantileBatch { epoch, indices } => Some((Op::Quantile, *epoch, indices.clone())),
        Response::MassBatch { epoch, masses } => {
            Some((Op::Mass, *epoch, masses.iter().map(|v| v.to_bits()).collect()))
        }
        _ => None,
    }
}

/// Decodes an answer frame as `read_message` returns it: envelope and CRC
/// check, then the payload (`decode_response` wants the length prefix too).
pub fn decode_answer(frame: &[u8]) -> NetResult<Response> {
    let (version, op, payload) = check_envelope(frame)?;
    Ok(decode_response_frame(version, op, payload)?)
}

/// One completed exchange.
pub struct Exchanged {
    pub response: Response,
    /// When the answer was decoded: the end of the request's latency.
    pub done: Instant,
    message: Vec<u8>,
    answer: Vec<u8>,
}

impl Exchanged {
    /// Request plus response bytes on the wire.
    pub fn bytes(&self) -> usize {
        self.message.len() + LENGTH_PREFIX_BYTES + self.answer.len()
    }

    /// Replays the server's stages on this exchange's frames against `map`
    /// as spans of request `id` (nothing when tracing is off):
    /// `net.server_decode` (envelope, CRC and decode of the request),
    /// `serve.snapshot`, the op's kernel, `net.server_encode` (the response
    /// frame) and `persist.crc32` (the four CRC passes a request pays).
    /// Call it after taking [`Exchanged::done`]: replays are not latency.
    pub fn replay(&self, id: u64, map: &StoreMap) {
        if trace::enabled() {
            replay_server(id, &self.message, &self.answer, &self.response, map);
        }
    }
}

/// Sends one request and reads its answer, recording the client stages and
/// the round trip as spans of request `id` when tracing.
pub fn exchange(conn: &mut Conn, id: u64, request: &Request) -> NetResult<Exchanged> {
    let message = {
        let _span = trace::span("net.client_encode", id);
        encode_request(request)
    };
    let answer = {
        let _span = trace::span("net.roundtrip", id);
        conn.send(&message)?;
        conn.recv()?
    };
    let response = {
        let _span = trace::span("net.client_decode", id);
        decode_answer(&answer)?
    };
    Ok(Exchanged { response, done: Instant::now(), message, answer })
}

fn replay_server(id: u64, message: &[u8], answer: &[u8], response: &Response, map: &StoreMap) {
    let request = {
        let _span = trace::span("net.server_decode", id);
        std::hint::black_box(decode_request(message)).ok()
    };
    if let Some((key, args)) = request.as_ref().and_then(Args::of) {
        let snapshot = {
            let _span = trace::span("serve.snapshot", id);
            map.snapshot(key)
        };
        if let Some(snapshot) = snapshot {
            let _span = trace::span(args.op().kernel_span(), id);
            args.kernel(snapshot.synopsis());
        }
    }
    {
        let _span = trace::span("net.server_encode", id);
        std::hint::black_box(encode_response(response));
    }
    let _span = trace::span("persist.crc32", id);
    // The CRC covers a frame after its length prefix, up to its trailer.
    let request_body = &message[LENGTH_PREFIX_BYTES..message.len() - 4];
    let answer_body = &answer[..answer.len() - 4];
    for body in [request_body, request_body, answer_body, answer_body] {
        std::hint::black_box(hist_persist::crc32(std::hint::black_box(body)));
    }
}
