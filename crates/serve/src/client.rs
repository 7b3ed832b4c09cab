//! A minimal blocking client for the serve protocol — what the smoke
//! test, the loopback integration tests, and the saturation benchmark
//! drive the server with.
//!
//! The client is deliberately a thin wrapper over one socket: one
//! [`Client::send`]/[`Client::recv`] pair per call, no internal
//! demultiplexing. Pipelining is the caller's job — fire a burst of
//! [`Client::classify_send`]s, then [`Client::recv`] the responses and
//! match them up by `request_id` (the server retires lanes in an order
//! unrelated to submission order).

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, ClassifyRequest, ClassifyResponse,
    Request, Response, MAX_FRAME,
};

/// One blocking protocol connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a serving address.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request frame without waiting for the response.
    ///
    /// # Errors
    ///
    /// Refuses a request the wire layout cannot carry with
    /// [`io::ErrorKind::InvalidInput`], before writing anything: a model
    /// name over 255 bytes, an image that is not `side × side` pixels for a
    /// side of at most 65 535, or a payload over [`MAX_FRAME`]. Sent, such a
    /// request would be misframed, and the server would answer it under
    /// request id 0, which a pipelining caller cannot match to it.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if let Request::Classify(c) = req {
            let side = c.image.shape().last().copied().unwrap_or(0);
            if c.model.len() > usize::from(u8::MAX) {
                return invalid(format!("model name of {} bytes exceeds 255", c.model.len()));
            }
            if side > usize::from(u16::MAX) || c.image.len() != side * side {
                let shape = c.image.shape();
                return invalid(format!("image {shape:?} is not side × side, side ≤ 65535"));
            }
        }
        let payload = encode_request(req);
        if payload.len() > MAX_FRAME {
            return invalid(format!("request of {} bytes exceeds MAX_FRAME", payload.len()));
        }
        write_frame(&mut self.stream, &payload)
    }

    /// Receives the next response frame (blocking; responses to pipelined
    /// classify requests arrive in retirement order, not submission
    /// order).
    pub fn recv(&mut self) -> io::Result<Response> {
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        decode_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Fires a classify request without waiting — the pipelining half of
    /// a burst.
    pub fn classify_send(&mut self, req: ClassifyRequest) -> io::Result<()> {
        self.send(&Request::Classify(req))
    }

    /// One synchronous classify round trip.
    pub fn classify(&mut self, req: ClassifyRequest) -> io::Result<ClassifyResponse> {
        self.classify_send(req)?;
        match self.recv()? {
            Response::Classify(resp) => Ok(resp),
            Response::Stats(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "stats response to a classify request",
            )),
        }
    }

    /// One synchronous stats round trip, returning the raw JSON object.
    /// Use it on a connection with no classify responses outstanding (or
    /// a dedicated one): response kinds are distinguishable by opcode but
    /// this helper expects the next frame to be the stats reply.
    pub fn stats(&mut self) -> io::Result<String> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Response::Stats(json) => Ok(json),
            Response::Classify(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "classify response to a stats request",
            )),
        }
    }

    /// The underlying stream (for raw protocol tests, e.g. writing a
    /// deliberately malformed frame).
    pub fn stream(&mut self) -> &mut (impl Read + Write) {
        &mut self.stream
    }
}

/// Pulls a numeric field out of a flat stats JSON object — enough parsing
/// for tests and the bench gate without a JSON dependency. Returns `None`
/// for absent keys and non-scalar values (the histogram arrays).
pub fn stats_field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqfp_sc_nn::Tensor;
    use std::net::TcpListener;

    #[test]
    fn send_refuses_unframeable_requests_before_writing() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let mut client = Client::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut peer, _) = listener.accept().expect("accept");
        let classify = |model: &str, shape: Vec<usize>| {
            Request::Classify(ClassifyRequest {
                request_id: 7,
                model: model.to_string(),
                seed: 1,
                deadline_us: 0,
                image: Tensor::zeros(shape),
            })
        };
        let refused = [
            classify(&"m".repeat(256), vec![1, 4, 4]),
            classify("m", vec![1, 1, 65_536]),
            classify("m", vec![1, 2, 3]),
            classify("m", vec![1, 600, 600]),
        ];
        for req in &refused {
            let err = client.send(req).expect_err("unframeable request sent");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        }
        // The longest name and a square image still go out; the peer's
        // first frame is that request, so nothing was written before it.
        let ok = classify(&"m".repeat(255), vec![1, 4, 4]);
        client.send(&ok).expect("frameable request");
        let frame = read_frame(&mut peer).expect("read").expect("a frame");
        assert_eq!(frame, encode_request(&ok));
    }

    #[test]
    fn stats_field_reads_scalars_and_rejects_arrays() {
        let json = "{\"received\":12,\"avg_lanes\":3.500,\"batch_hist\":[1,2],\"p99\":128}";
        assert_eq!(stats_field(json, "received"), Some(12.0));
        assert_eq!(stats_field(json, "avg_lanes"), Some(3.5));
        assert_eq!(stats_field(json, "p99"), Some(128.0));
        assert_eq!(stats_field(json, "batch_hist"), None);
        assert_eq!(stats_field(json, "absent"), None);
    }
}
