//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame in either direction is a little-endian `u32` payload length
//! followed by that many payload bytes ([`write_frame`] / [`read_frame`]);
//! payloads are capped at [`MAX_FRAME`] so a hostile length prefix cannot
//! force a huge allocation. The first payload byte is the opcode
//! ([`OP_CLASSIFY`] / [`OP_STATS`]), echoed back in the response so a
//! pipelining client can tell reply kinds apart; classify responses
//! additionally echo the caller-chosen `request_id`, because dynamic
//! batching reorders completions.
//!
//! # Classify request layout (after the opcode byte)
//!
//! | field | type | notes |
//! |---|---|---|
//! | `request_id` | `u64` | echoed verbatim in the response |
//! | `model_len` | `u8` | model name length in bytes |
//! | `model` | UTF-8 bytes | registry name to dispatch to |
//! | `seed` | `u64` | image-stream seed (determinism contract) |
//! | `deadline_us` | `u32` | 0 = no deadline (exact full-N path); >0 routes through early-exit |
//! | `side` | `u16` | image is `1 × side × side` |
//! | `pixels` | `f32 × side²` | row-major |
//!
//! # Classify response layout (after opcode + status + `request_id`)
//!
//! Status [`Status::Ok`]: `early_exit: u8`, `deadline_mode: u8`,
//! `cycles: u32`, `class: u16`, `nscores: u16`, `scores: f64 × nscores`.
//! Any other status: `msg_len: u32` + a UTF-8 diagnostic message.
//!
//! Stats responses carry `json_len: u32` + a UTF-8 JSON object (see
//! [`StatsSnapshot::to_json`](crate::StatsSnapshot::to_json)).

use std::io::{self, Read, Write};

use aqfp_sc_nn::Tensor;

/// Hard cap on a frame payload, in bytes — large enough for a 28×28 MNIST
/// image many times over, small enough that a hostile length prefix cannot
/// force a meaningful allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Opcode of a classification request (and its response).
pub const OP_CLASSIFY: u8 = 1;
/// Opcode of a stats-snapshot request (and its response).
pub const OP_STATS: u8 = 2;

/// Response status — every rejection is a distinct, typed code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The request was served; the payload carries scores.
    Ok,
    /// Admission control: the batching queue was at capacity (or the
    /// server is shutting down). Back off and retry.
    Overloaded,
    /// No model of the requested name is registered (the message names the
    /// registered alternatives, or reports an empty registry).
    UnknownModel,
    /// The request was structurally invalid (bad opcode, truncated
    /// payload, image shape mismatch, …).
    BadRequest,
    /// The request's deadline had already expired when a dispatch slot
    /// opened; no cycles were spent on it.
    DeadlineExpired,
}

impl Status {
    /// Wire encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Overloaded => 1,
            Status::UnknownModel => 2,
            Status::BadRequest => 3,
            Status::DeadlineExpired => 4,
        }
    }

    /// Decodes a wire status byte.
    pub fn from_u8(b: u8) -> Result<Self, ProtocolError> {
        Ok(match b {
            0 => Status::Ok,
            1 => Status::Overloaded,
            2 => Status::UnknownModel,
            3 => Status::BadRequest,
            4 => Status::DeadlineExpired,
            other => return Err(ProtocolError::BadStatus(other)),
        })
    }
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before a declared field.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown status byte.
    BadStatus(u8),
    /// A declared length exceeds [`MAX_FRAME`] or the remaining payload.
    Oversized,
    /// A name or message field was not valid UTF-8.
    BadUtf8,
    /// The image side was 0 (a `1 × 0 × 0` image cannot be classified).
    EmptyImage,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "payload truncated"),
            ProtocolError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            ProtocolError::BadStatus(s) => write!(f, "unknown status {s}"),
            ProtocolError::Oversized => write!(f, "declared length exceeds frame bounds"),
            ProtocolError::BadUtf8 => write!(f, "name/message is not valid UTF-8"),
            ProtocolError::EmptyImage => write!(f, "image side must be at least 1"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A decoded request payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify one image.
    Classify(ClassifyRequest),
    /// Return a stats snapshot.
    Stats,
}

/// The classify-request fields (see the module docs for the wire layout).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyRequest {
    /// Caller-chosen id echoed in the response (responses may arrive out
    /// of submission order).
    pub request_id: u64,
    /// Registry name of the model to run.
    pub model: String,
    /// Image-stream seed: the served scores are bit-identical to a direct
    /// `InferenceEngine::scores` call with this seed.
    pub seed: u64,
    /// Latency budget in microseconds from arrival; 0 = no deadline (the
    /// exact full-N path). A positive budget routes the request through
    /// the early-exit streaming path, and expires it unserved if the
    /// budget is already gone at dispatch time.
    pub deadline_us: u32,
    /// The image, shape `1 × side × side`.
    pub image: Tensor,
}

/// A decoded response payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Outcome of a classify request.
    Classify(ClassifyResponse),
    /// A stats snapshot, as a JSON object.
    Stats(String),
}

/// The classify-response fields (see the module docs for the wire layout).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyResponse {
    /// Echo of the request's id.
    pub request_id: u64,
    /// Outcome status; the fields below are meaningful only for
    /// [`Status::Ok`].
    pub status: Status,
    /// Whether the early-exit policy fired before full N.
    pub early_exit: bool,
    /// Whether the request rode the deadline (early-exit) path.
    pub deadline_mode: bool,
    /// Stochastic cycles actually consumed.
    pub cycles: u32,
    /// Predicted class (argmax of `scores`).
    pub class: u16,
    /// Raw class scores at the cycle the run stopped.
    pub scores: Vec<f64>,
    /// Diagnostic message for non-[`Status::Ok`] outcomes (empty on
    /// success).
    pub error: String,
}

impl ClassifyResponse {
    /// A rejection/error response carrying no scores.
    pub fn error(request_id: u64, status: Status, message: impl Into<String>) -> Self {
        ClassifyResponse {
            request_id,
            status,
            early_exit: false,
            deadline_mode: false,
            cycles: 0,
            class: 0,
            scores: Vec::new(),
            error: message.into(),
        }
    }
}

/// Serialises a request payload (no length prefix — [`write_frame`] adds
/// it).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Stats => vec![OP_STATS],
        Request::Classify(c) => {
            let side = c.image.shape().last().copied().unwrap_or(0);
            let mut out = Vec::with_capacity(25 + c.model.len() + 4 * c.image.data().len());
            out.push(OP_CLASSIFY);
            out.extend_from_slice(&c.request_id.to_le_bytes());
            debug_assert!(c.model.len() <= u8::MAX as usize, "model name too long");
            out.push(c.model.len() as u8);
            out.extend_from_slice(c.model.as_bytes());
            out.extend_from_slice(&c.seed.to_le_bytes());
            out.extend_from_slice(&c.deadline_us.to_le_bytes());
            out.extend_from_slice(&(side as u16).to_le_bytes());
            for &p in c.image.data() {
                out.extend_from_slice(&p.to_le_bytes());
            }
            out
        }
    }
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut r = Reader { buf: payload, pos: 0 };
    match r.u8()? {
        OP_STATS => Ok(Request::Stats),
        OP_CLASSIFY => {
            let request_id = r.u64()?;
            let name_len = r.u8()? as usize;
            let model = String::from_utf8(r.bytes(name_len)?.to_vec())
                .map_err(|_| ProtocolError::BadUtf8)?;
            let seed = r.u64()?;
            let deadline_us = r.u32()?;
            let side = r.u16()? as usize;
            if side == 0 {
                return Err(ProtocolError::EmptyImage);
            }
            let pixels = side
                .checked_mul(side)
                .filter(|n| n.checked_mul(4).is_some_and(|b| b <= MAX_FRAME))
                .ok_or(ProtocolError::Oversized)?;
            let mut data = Vec::with_capacity(pixels);
            for _ in 0..pixels {
                data.push(f32::from_le_bytes(r.bytes(4)?.try_into().expect("4 bytes")));
            }
            Ok(Request::Classify(ClassifyRequest {
                request_id,
                model,
                seed,
                deadline_us,
                image: Tensor::from_vec(vec![1, side, side], data),
            }))
        }
        other => Err(ProtocolError::BadOpcode(other)),
    }
}

/// Serialises a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Stats(json) => {
            let mut out = Vec::with_capacity(6 + json.len());
            out.push(OP_STATS);
            out.push(Status::Ok.as_u8());
            out.extend_from_slice(&(json.len() as u32).to_le_bytes());
            out.extend_from_slice(json.as_bytes());
            out
        }
        Response::Classify(c) => {
            let mut out = Vec::with_capacity(32 + 8 * c.scores.len() + c.error.len());
            out.push(OP_CLASSIFY);
            out.push(c.status.as_u8());
            out.extend_from_slice(&c.request_id.to_le_bytes());
            if c.status == Status::Ok {
                out.push(c.early_exit as u8);
                out.push(c.deadline_mode as u8);
                out.extend_from_slice(&c.cycles.to_le_bytes());
                out.extend_from_slice(&c.class.to_le_bytes());
                out.extend_from_slice(&(c.scores.len() as u16).to_le_bytes());
                for &s in &c.scores {
                    out.extend_from_slice(&s.to_le_bytes());
                }
            } else {
                out.extend_from_slice(&(c.error.len() as u32).to_le_bytes());
                out.extend_from_slice(c.error.as_bytes());
            }
            out
        }
    }
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut r = Reader { buf: payload, pos: 0 };
    match r.u8()? {
        OP_STATS => {
            let _status = Status::from_u8(r.u8()?)?;
            let len = r.u32()? as usize;
            let json = String::from_utf8(r.bytes(len)?.to_vec())
                .map_err(|_| ProtocolError::BadUtf8)?;
            Ok(Response::Stats(json))
        }
        OP_CLASSIFY => {
            let status = Status::from_u8(r.u8()?)?;
            let request_id = r.u64()?;
            if status == Status::Ok {
                let early_exit = r.u8()? != 0;
                let deadline_mode = r.u8()? != 0;
                let cycles = r.u32()?;
                let class = r.u16()?;
                let nscores = r.u16()? as usize;
                let mut scores = Vec::with_capacity(nscores);
                for _ in 0..nscores {
                    scores
                        .push(f64::from_le_bytes(r.bytes(8)?.try_into().expect("8 bytes")));
                }
                Ok(Response::Classify(ClassifyResponse {
                    request_id,
                    status,
                    early_exit,
                    deadline_mode,
                    cycles,
                    class,
                    scores,
                    error: String::new(),
                }))
            } else {
                let len = r.u32()? as usize;
                let error = String::from_utf8(r.bytes(len)?.to_vec())
                    .map_err(|_| ProtocolError::BadUtf8)?;
                Ok(Response::Classify(ClassifyResponse::error(request_id, status, error)))
            }
        }
        other => Err(ProtocolError::BadOpcode(other)),
    }
}

/// Writes one length-prefixed frame in a single write, so a socket with
/// Nagle's algorithm on never sends the prefix alone and then holds the
/// payload until the peer's (possibly delayed) ACK.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME, "frame over MAX_FRAME");
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on a clean EOF at a frame
/// boundary. An oversized length prefix is an `InvalidData` error (the
/// connection is unrecoverable — framing is lost).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Oversized)?;
        if end > self.buf.len() {
            return Err(ProtocolError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(side: usize) -> Tensor {
        Tensor::from_vec(
            vec![1, side, side],
            (0..side * side).map(|p| p as f32 / 64.0).collect(),
        )
    }

    #[test]
    fn classify_request_round_trips() {
        let req = Request::Classify(ClassifyRequest {
            request_id: 0xDEAD_BEEF_0123,
            model: "tiny".to_string(),
            seed: 42,
            deadline_us: 1500,
            image: image(8),
        });
        assert_eq!(decode_request(&encode_request(&req)).expect("round trip"), req);
        assert_eq!(
            decode_request(&encode_request(&Request::Stats)).expect("round trip"),
            Request::Stats
        );
    }

    #[test]
    fn classify_response_round_trips() {
        let ok = Response::Classify(ClassifyResponse {
            request_id: 7,
            status: Status::Ok,
            early_exit: true,
            deadline_mode: true,
            cycles: 192,
            class: 3,
            scores: vec![-0.25, 0.5, f64::MIN_POSITIVE, 0.0],
            error: String::new(),
        });
        assert_eq!(decode_response(&encode_response(&ok)).expect("round trip"), ok);
        let err = Response::Classify(ClassifyResponse::error(
            9,
            Status::UnknownModel,
            "unknown model `x`",
        ));
        assert_eq!(decode_response(&encode_response(&err)).expect("round trip"), err);
        let stats = Response::Stats("{\"accepted\": 3}".to_string());
        assert_eq!(decode_response(&encode_response(&stats)).expect("round trip"), stats);
    }

    #[test]
    fn hostile_payloads_decode_to_typed_errors() {
        assert_eq!(decode_request(&[]), Err(ProtocolError::Truncated));
        assert_eq!(decode_request(&[99]), Err(ProtocolError::BadOpcode(99)));
        // Truncated mid-header.
        let mut good = encode_request(&Request::Classify(ClassifyRequest {
            request_id: 1,
            model: "m".to_string(),
            seed: 2,
            deadline_us: 0,
            image: image(4),
        }));
        for cut in [1usize, 9, 10, 12, 20, good.len() - 1] {
            assert_eq!(decode_request(&good[..cut]), Err(ProtocolError::Truncated), "cut {cut}");
        }
        // A name length running past the payload.
        good[9] = 255;
        assert_eq!(decode_request(&good), Err(ProtocolError::Truncated));
        // A zero-sided image.
        let req = Request::Classify(ClassifyRequest {
            request_id: 1,
            model: String::new(),
            seed: 2,
            deadline_us: 0,
            image: image(1),
        });
        let mut bytes = encode_request(&req);
        let side_off = bytes.len() - 4 - 2;
        bytes[side_off] = 0;
        bytes[side_off + 1] = 0;
        assert_eq!(decode_request(&bytes), Err(ProtocolError::EmptyImage));
        // A side whose pixel count would blow past MAX_FRAME.
        bytes[side_off] = 0xFF;
        bytes[side_off + 1] = 0xFF;
        assert_eq!(decode_request(&bytes), Err(ProtocolError::Oversized));
        // Response side: unknown status byte.
        assert_eq!(decode_response(&[OP_CLASSIFY, 200]), Err(ProtocolError::BadStatus(200)));
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write");
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).expect("read").as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut cursor).expect("read").as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut cursor).expect("read"), None);
        // A length prefix over MAX_FRAME is rejected before allocating.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
    }

    #[test]
    fn a_frame_is_one_write() {
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for payload in [&b""[..], b"x", &[7u8; 3 * 1024]] {
            let mut w = Counting { writes: 0, bytes: Vec::new() };
            write_frame(&mut w, payload).expect("write");
            assert_eq!(w.writes, 1, "{}-byte payload", payload.len());
            let frame = read_frame(&mut &w.bytes[..]).expect("read");
            assert_eq!(frame.as_deref(), Some(payload));
        }
    }
}
