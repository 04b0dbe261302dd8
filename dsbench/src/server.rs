//! Starting, stopping and checking an in-process `dkc-serve` server.
//!
//! The server runs on this process's threads but is reached only over
//! loopback TCP with the wire protocol, like any client would.

use crate::traffic::Traffic;
use crate::wire::{reply_ok, Conn};
use dkc_clique::Clique;
use dkc_core::json::Json;
use dkc_core::Solution;
use dkc_dynamic::ServingSolver;
use dkc_graph::CsrGraph;
use dkc_serve::protocol::{render_command_request, render_query_request};
use dkc_serve::{Query, Server, ServerConfig, ServerHandle};
use std::net::{SocketAddr, TcpListener};

/// A running server. The benchmark holds no connection to it between
/// calls, so the clients of a phase are its only open connections.
pub struct Running {
    /// The server's join handle.
    pub handle: ServerHandle,
    /// Its address.
    pub addr: SocketAddr,
}

/// The `query stats` request line.
pub fn stats_request() -> String {
    render_query_request(Query::Stats)
}

/// The `query solution` request line.
pub fn solution_request() -> String {
    render_query_request(Query::Solution)
}

/// Starts `serving` with `config` and waits for the first `stats` reply,
/// which is returned with the server.
pub fn start(serving: ServingSolver, config: ServerConfig) -> std::io::Result<(Running, String)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let handle = Server::start(listener, serving, config)?;
    let addr = handle.local_addr();
    let first = Conn::connect(addr)?.call(&stats_request())?.to_string();
    if !reply_ok(&first) {
        return Err(std::io::Error::other(format!("first reply failed: {first}")));
    }
    Ok((Running { handle, addr }, first))
}

/// Sends `shutdown` and waits until every server thread has ended.
pub fn stop(running: Running) -> std::io::Result<()> {
    let reply = Conn::connect(running.addr)?.call(&render_command_request("shutdown"))?.to_string();
    running.handle.join();
    if reply_ok(&reply) {
        Ok(())
    } else {
        Err(std::io::Error::other(format!("shutdown failed: {reply}")))
    }
}

/// A `stats` body without its `reply_cache` member: the counters of the
/// process-local reply cache restart at zero, everything else is durable
/// state.
pub fn durable_stats(body: &str) -> &str {
    body.rfind(r#","reply_cache":"#).map_or(body, |i| &body[..i])
}

/// Reads an unsigned member of a reply.
pub fn member_u64(body: &str, path: &[&str]) -> Option<u64> {
    let doc = Json::parse(body).ok()?;
    let mut v = &doc;
    for key in path {
        v = v.get(key)?;
    }
    v.as_u64()
}

/// Checks a `solution` body against the graph the benchmark replayed:
/// the cliques must be disjoint k-cliques of `g` after `traffic`, and the
/// reported size must match. Returns |S|.
pub fn verify_solution(
    body: &str,
    k: usize,
    g: &CsrGraph,
    traffic: &Traffic,
) -> Result<usize, String> {
    let doc = Json::parse(body).map_err(|e| format!("solution reply does not parse: {e}"))?;
    let rows = doc.get("cliques").and_then(Json::as_arr).ok_or("solution reply has no cliques")?;
    let mut solution = Solution::new(k);
    for row in rows {
        let members: Option<Vec<u32>> = row
            .as_arr()
            .ok_or("clique is not an array")?
            .iter()
            .map(|v| v.as_u64().and_then(|u| u32::try_from(u).ok()))
            .collect();
        let members = members.ok_or("clique member is not a node id")?;
        if members.len() != k {
            return Err(format!("clique of {} nodes, k = {k}", members.len()));
        }
        let mut sorted = members.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1])
            || sorted.last().is_some_and(|&u| u as usize >= g.num_nodes())
        {
            return Err(format!("bad clique {members:?}"));
        }
        solution.push(Clique::new(&members));
    }
    solution
        .verify_with(g.num_nodes(), |a, b| traffic.has_edge(g, a, b))
        .map_err(|e| format!("served solution invalid after replay: {e:?}"))?;
    let size = doc.get("size").and_then(Json::as_u64);
    if size != Some(solution.len() as u64) {
        return Err(format!("size {size:?} but {} cliques", solution.len()));
    }
    Ok(solution.len())
}
