//! The loopback client: one session sending a request frame and reading
//! the whole response sequence, keeping a digest of the raw reply bytes so
//! two servers' replies can be compared exactly.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

use mera_server::protocol::{read_frame, write_frame};
use mera_server::{Request, Response, Row};

/// One assembled reply.
#[derive(Debug, Default)]
pub struct Reply {
    /// One entry per result relation, rows in server order.
    pub results: Vec<Vec<Row>>,
    /// `Notice` frames: per-transaction abort reasons.
    pub notices: Vec<String>,
    pub committed: u32,
    pub aborted: u32,
    /// The terminal `Error` frame's message, if the request failed.
    pub error: Option<String>,
    /// FNV-1a over every frame payload of the reply, in order.
    pub digest: u64,
}

impl Reply {
    /// True when the request neither failed nor had an aborted
    /// transaction.
    pub fn ok(&self) -> bool {
        self.error.is_none() && self.aborted == 0
    }
}

/// A connected session.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one request and reads its response sequence. `Err` is a
    /// transport or framing failure: the session is unusable afterwards.
    pub fn call(&mut self, request: &Request) -> io::Result<Reply> {
        write_frame(&mut self.writer, &request.encode())?;
        self.writer.flush()?;
        let mut reply = Reply {
            digest: FNV_OFFSET,
            ..Reply::default()
        };
        let mut open: Vec<Row> = Vec::new();
        loop {
            let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-reply")
            })?;
            reply.digest = fnv1a(reply.digest, &payload);
            match Response::decode(&payload)? {
                Response::RowBatch { last, rows } => {
                    open.extend(rows);
                    if last {
                        reply.results.push(std::mem::take(&mut open));
                    }
                }
                Response::Notice(msg) => reply.notices.push(msg),
                Response::Done { committed, aborted } => {
                    reply.committed = committed;
                    reply.aborted = aborted;
                    return Ok(reply);
                }
                Response::Error(msg) => {
                    reply.error = Some(msg);
                    return Ok(reply);
                }
                Response::Pong => return Ok(reply),
            }
        }
    }

    /// Sends one SQL statement; a failed or aborted statement is an error.
    pub fn sql(&mut self, sql: &str) -> Result<Reply, String> {
        let reply = self
            .call(&Request::Sql(sql.to_owned()))
            .map_err(|e| format!("transport error on `{}`: {e}", abbreviate(sql)))?;
        if let Some(e) = &reply.error {
            return Err(format!("`{}` failed: {e}", abbreviate(sql)));
        }
        if let Some(n) = reply.notices.first() {
            return Err(format!("`{}` aborted: {n}", abbreviate(sql)));
        }
        Ok(reply)
    }
}

fn abbreviate(text: &str) -> &str {
    match text.char_indices().nth(80) {
        Some((i, _)) => &text[..i],
        None => text,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
