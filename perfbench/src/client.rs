//! The two ways the load generators reach the daemon: over HTTP (std
//! `TcpStream`, one request per connection, as the daemon serves them) and
//! directly through the in-process [`Engine`] handle. The traced serve runs
//! replay the same load through both and attribute the difference to the
//! HTTP front end.

use muse_obs::json::{self, Json};
use muse_serve::{Engine, ForecastResponse};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Per-request I/O timeout; a request that exceeds it is a failure.
const TIMEOUT: Duration = Duration::from_secs(10);

/// A daemon the load generators can talk to.
pub trait Daemon: Sync {
    /// Forecast `horizon` steps past the last ingested frame.
    fn forecast(&self, horizon: usize) -> Result<ForecastResponse, String>;
    /// Ingest one frame; returns the absolute index the daemon gave it.
    fn ingest(&self, frame: &[f32]) -> Result<u64, String>;
    /// The `/alerts` payload.
    fn alerts(&self) -> Result<Json, String>;
}

/// State of one named rule in an `/alerts` payload.
pub fn alert_state(alerts: &Json, name: &str) -> Option<String> {
    alerts.get("alerts")?.as_arr()?.iter().find_map(|rule| {
        (rule.get("name")?.as_str()? == name).then(|| rule.get("state")?.as_str().map(str::to_string))?
    })
}

/// The daemon's HTTP front end.
pub struct Http {
    /// Bound address of the server.
    pub addr: SocketAddr,
}

impl Http {
    fn exchange(&self, payload: &[u8]) -> Result<(u16, String), String> {
        let mut stream =
            TcpStream::connect_timeout(&self.addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
        stream.set_read_timeout(Some(TIMEOUT)).map_err(|e| e.to_string())?;
        stream.set_write_timeout(Some(TIMEOUT)).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        stream.write_all(payload).map_err(|e| format!("write: {e}"))?;
        let mut response = Vec::with_capacity(1024);
        stream.read_to_end(&mut response).map_err(|e| format!("read: {e}"))?;
        let text = String::from_utf8(response).map_err(|_| "response is not UTF-8".to_string())?;
        let status = text
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or("malformed status line")?;
        let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        Ok((status, body))
    }

    fn get_json(&self, path: &str) -> Result<Json, String> {
        let (status, body) =
            self.exchange(format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())?;
        if !(200..300).contains(&status) {
            return Err(format!("GET {path} -> {status}: {}", body.trim()));
        }
        json::parse(&body).map_err(|e| format!("GET {path}: unparsable body: {e}"))
    }
}

impl Daemon for Http {
    fn forecast(&self, horizon: usize) -> Result<ForecastResponse, String> {
        let body = self.get_json(&format!("/forecast?horizon={horizon}"))?;
        ForecastResponse::from_json(&body)
    }

    fn ingest(&self, frame: &[f32]) -> Result<u64, String> {
        let mut body = Vec::with_capacity(frame.len() * 4);
        for v in frame {
            body.extend_from_slice(&v.to_le_bytes());
        }
        let mut payload = format!(
            "POST /ingest HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/octet-stream\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        payload.extend_from_slice(&body);
        let (status, reply) = self.exchange(&payload)?;
        if !(200..300).contains(&status) {
            return Err(format!("POST /ingest -> {status}: {}", reply.trim()));
        }
        let ack = json::parse(&reply).map_err(|e| format!("POST /ingest: unparsable ack: {e}"))?;
        ack.get("index").and_then(Json::as_f64).map(|i| i as u64).ok_or("ack has no index".to_string())
    }

    fn alerts(&self) -> Result<Json, String> {
        self.get_json("/alerts")
    }
}

/// The engine handle, bypassing HTTP.
pub struct Direct {
    /// The engine.
    pub engine: Arc<Engine>,
}

impl Daemon for Direct {
    fn forecast(&self, horizon: usize) -> Result<ForecastResponse, String> {
        self.engine.forecast(horizon).map_err(|e| e.to_string())
    }

    fn ingest(&self, frame: &[f32]) -> Result<u64, String> {
        self.engine.ingest(frame.to_vec()).map(|ack| ack.index).map_err(|e| e.to_string())
    }

    fn alerts(&self) -> Result<Json, String> {
        self.engine.alerts().map_err(|e| e.to_string())
    }
}
