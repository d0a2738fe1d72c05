//! A small blocking JSONL client for the TCP front-end.
//!
//! Used by the integration tests; also a reference for what a real
//! client looks like: write one flat JSON request per line with an
//! `"id"`, read pushed events, and match responses back to requests by
//! that id (results arrive whenever their job settles, not in request
//! order).

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use parsweep_svc::jsonl::{emit_object, get, parse_object, JsonValue};
use parsweep_svc::Lane;

/// A parsed event: the flat object's fields.
pub type Event = Vec<(String, JsonValue)>;

/// The server's answer to one submit.
#[derive(Clone, Debug, Default)]
pub struct SubmitReply {
    /// `"accepted"` or `"queued"` (absent when rejected).
    pub admission: Option<String>,
    /// The service job id (accepted submits only).
    pub job: Option<u64>,
    /// Backoff hint (rejected submits only).
    pub retry_after_ms: Option<u64>,
    /// The request id this client attached; results carry it back.
    pub request_id: u64,
    /// True when the submit was rejected.
    pub rejected: bool,
}

/// Blocking JSONL client over one TCP connection.
pub struct NetClient {
    stream: TcpStream,
    buf: Vec<u8>,
    pending: VecDeque<Event>,
    next_id: u64,
}

impl NetClient {
    /// Connects to a [`crate::NetServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            buf: Vec::new(),
            pending: VecDeque::new(),
            next_id: 1,
        })
    }

    /// Sends one raw request line.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// Reads the next event (blocking), in arrival order. Buffered
    /// events set aside by the matchers are returned first.
    pub fn read_event(&mut self) -> std::io::Result<Event> {
        if let Some(event) = self.pending.pop_front() {
            return Ok(event);
        }
        self.read_event_from_wire()
    }

    fn read_event_from_wire(&mut self) -> std::io::Result<Event> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                if line.trim().is_empty() {
                    continue;
                }
                return parse_object(&line).map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad event line: {e} ({line})"),
                    )
                });
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Reads events until one satisfies `matches`; others are buffered
    /// for later [`NetClient::read_event`]/matcher calls.
    pub fn read_until(&mut self, matches: impl Fn(&Event) -> bool) -> std::io::Result<Event> {
        if let Some(i) = self.pending.iter().position(&matches) {
            return Ok(self.pending.remove(i).expect("position just found"));
        }
        loop {
            let event = self.read_event_from_wire()?;
            if matches(&event) {
                return Ok(event);
            }
            self.pending.push_back(event);
        }
    }

    /// Submits a demo-adder job and returns the admission reply.
    pub fn submit_demo(
        &mut self,
        width: usize,
        lane: Lane,
        corrupt: bool,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<SubmitReply> {
        let request_id = self.next_id;
        self.next_id += 1;
        let mut fields = vec![
            ("op", JsonValue::Str("submit".into())),
            ("demo", JsonValue::Str("adder".into())),
            ("width", JsonValue::Num(width as f64)),
            ("lane", JsonValue::Str(lane.name().into())),
            ("id", JsonValue::Num(request_id as f64)),
        ];
        if corrupt {
            fields.push(("corrupt", JsonValue::Bool(true)));
        }
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms", JsonValue::Num(ms as f64)));
        }
        self.send_line(&emit_object(&fields))?;
        let event = self.read_until(|e| {
            event_id(e) == Some(request_id)
                && matches!(event_name(e), Some("submitted" | "rejected" | "error"))
        })?;
        let mut reply = SubmitReply {
            request_id,
            ..SubmitReply::default()
        };
        match event_name(&event) {
            Some("submitted") => {
                reply.admission = get(&event, "admission")
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned);
                reply.job = get(&event, "job")
                    .and_then(JsonValue::as_f64)
                    .map(|v| v as u64);
            }
            Some("rejected") => {
                reply.rejected = true;
                reply.retry_after_ms = get(&event, "retry_after_ms")
                    .and_then(JsonValue::as_f64)
                    .map(|v| v as u64);
            }
            _ => {
                let msg = get(&event, "message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unknown error");
                return Err(std::io::Error::other(msg.to_owned()));
            }
        }
        Ok(reply)
    }

    /// Blocks until the result of the given request arrives.
    pub fn wait_result(&mut self, request_id: u64) -> std::io::Result<Event> {
        self.read_until(|e| event_name(e) == Some("result") && event_id(e) == Some(request_id))
    }

    /// Submit-and-wait round trip; returns the verdict string, or the
    /// rejection reply for the caller to back off on.
    pub fn check_demo(
        &mut self,
        width: usize,
        lane: Lane,
        corrupt: bool,
    ) -> std::io::Result<Result<String, SubmitReply>> {
        let reply = self.submit_demo(width, lane, corrupt, None)?;
        if reply.rejected {
            return Ok(Err(reply));
        }
        let result = self.wait_result(reply.request_id)?;
        let verdict = get(&result, "verdict")
            .and_then(JsonValue::as_str)
            .unwrap_or("missing")
            .to_owned();
        Ok(Ok(verdict))
    }

    /// Sends `{"op":"drain"}` and blocks until the stats event answers —
    /// i.e. until every job this connection submitted has settled.
    pub fn drain(&mut self) -> std::io::Result<Event> {
        let request_id = self.next_id;
        self.next_id += 1;
        self.send_line(&emit_object(&[
            ("op", JsonValue::Str("drain".into())),
            ("id", JsonValue::Num(request_id as f64)),
        ]))?;
        self.read_until(|e| event_name(e) == Some("stats") && event_id(e) == Some(request_id))
    }
}

/// The `event` field of an event.
pub fn event_name(event: &Event) -> Option<&str> {
    get(event, "event").and_then(JsonValue::as_str)
}

/// The echoed request id of an event.
pub fn event_id(event: &Event) -> Option<u64> {
    get(event, "id")
        .and_then(JsonValue::as_f64)
        .map(|v| v as u64)
}
