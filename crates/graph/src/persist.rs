//! Plain-text persistence of [`BehaviorGraph`].
//!
//! Retired: checkpoints no longer carry a graph, and nothing under
//! `crates/` calls this module — remove it with `graph.persist_*_s` in the
//! next `[benchmark]` PR (its `trace` binary is the last caller). It gives
//! the graph the same deliberately simple, versioned, line-oriented
//! treatment as the model persistence in `segugio-ml`: no external
//! serialization dependencies, deterministic output, and a loader that
//! never panics on hostile bytes.
//!
//! Only the machine-side CSR is written; the domain-side CSR is
//! reconstructed on load by a prefix sum + ascending-machine scatter, so
//! the two directions can never disagree in a well-formed file. `machine_malware_degree` is likewise recomputed from
//! the loaded labels. Every load ends with [`BehaviorGraph::validate`], so
//! a graph that parses but violates a structural invariant is rejected with
//! a typed error instead of corrupting downstream phases.

use segugio_model::{Day, DomainId, E2ldId, Ipv4, Label, MachineId};

use crate::graph::BehaviorGraph;

/// Serializes `graph` as deterministic text lines appended to `out`.
///
/// The format is a fixed sequence of keyword-prefixed lines terminated by
/// `end-graph`; [`read_graph`] consumes exactly this much from a line
/// iterator, so graphs embed cleanly inside larger checkpoint documents.
pub fn write_graph(graph: &BehaviorGraph, out: &mut String) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "graph v1 {} {} {} {} {}",
        graph.day.0,
        graph.machines.len(),
        graph.domains.len(),
        graph.m_adj.len(),
        graph.ip_pool.len()
    );
    write_u32_line(out, "machines", graph.machines.iter().map(|m| m.0));
    write_u32_line(out, "domains", graph.domains.iter().map(|d| d.0));
    write_u32_line(out, "e2ld", graph.domain_e2ld.iter().map(|e| e.0));
    write_u32_line(out, "ip-off", graph.ip_off.iter().copied());
    write_u32_line(out, "ip-pool", graph.ip_pool.iter().map(|ip| ip.0));
    write_u32_line(out, "m-off", graph.m_off.iter().copied());
    write_u32_line(out, "m-adj", graph.m_adj.iter().copied());
    write_label_line(out, "d-labels", &graph.domain_labels);
    write_label_line(out, "m-labels", &graph.machine_labels);
    out.push_str("end-graph\n");
}

fn write_u32_line(out: &mut String, keyword: &str, values: impl Iterator<Item = u32>) {
    use std::fmt::Write as _;
    out.push_str(keyword);
    for v in values {
        let _ = write!(out, " {v}");
    }
    out.push('\n');
}

fn write_label_line(out: &mut String, keyword: &str, labels: &[Label]) {
    out.push_str(keyword);
    out.push(' ');
    if labels.is_empty() {
        out.push('-');
    } else {
        for &l in labels {
            out.push(match l {
                Label::Malware => 'M',
                Label::Benign => 'B',
                Label::Unknown => 'U',
            });
        }
    }
    out.push('\n');
}

/// Reads one graph serialized by [`write_graph`] from `lines`, consuming up
/// to and including its `end-graph` terminator.
///
/// # Errors
///
/// Returns a description of the first malformed line or violated structural
/// invariant. The loader never panics and performs no allocation sized by
/// untrusted header counts — a truncated or garbled stream fails with
/// "unexpected end" / parse errors.
pub fn read_graph<'a>(lines: &mut impl Iterator<Item = &'a str>) -> Result<BehaviorGraph, String> {
    let header = next_line(lines, "graph header")?;
    let mut parts = header.split_whitespace();
    if (parts.next(), parts.next()) != (Some("graph"), Some("v1")) {
        return Err("expected `graph v1` header".to_owned());
    }
    let day: u32 = field(parts.next(), "graph day")?;
    let nm: u32 = field(parts.next(), "machine count")?;
    let nd: u32 = field(parts.next(), "domain count")?;
    let ne: u32 = field(parts.next(), "edge count")?;
    let nip: u32 = field(parts.next(), "ip-pool count")?;
    if parts.next().is_some() {
        return Err("trailing tokens on graph header".to_owned());
    }

    let machines: Vec<MachineId> = read_u32_line(lines, "machines", nm)?
        .into_iter()
        .map(MachineId)
        .collect();
    let domains: Vec<DomainId> = read_u32_line(lines, "domains", nd)?
        .into_iter()
        .map(DomainId)
        .collect();
    let domain_e2ld: Vec<E2ldId> = read_u32_line(lines, "e2ld", nd)?
        .into_iter()
        .map(E2ldId)
        .collect();
    let ip_off = read_u32_line(lines, "ip-off", nd.saturating_add(1))?;
    let ip_pool: Vec<Ipv4> = read_u32_line(lines, "ip-pool", nip)?
        .into_iter()
        .map(Ipv4)
        .collect();
    let m_off = read_u32_line(lines, "m-off", nm.saturating_add(1))?;
    let m_adj = read_u32_line(lines, "m-adj", ne)?;
    let domain_labels = read_label_line(lines, "d-labels", nd)?;
    let machine_labels = read_label_line(lines, "m-labels", nm)?;
    let end = next_line(lines, "end-graph")?;
    if end.trim() != "end-graph" {
        return Err("expected `end-graph` terminator".to_owned());
    }

    // Pre-checks the domain-CSR scatter depends on (everything else is
    // caught by `validate` below): the machine offsets must be a
    // well-formed partition of `m_adj`, and every adjacency entry must name
    // an existing domain.
    if m_off.first() != Some(&0) {
        return Err("m-off must start at 0".to_owned());
    }
    if m_off.windows(2).any(|w| w[0] > w[1]) {
        return Err("m-off offsets decrease".to_owned());
    }
    if m_off.last().map(|&o| o as usize) != Some(m_adj.len()) {
        return Err("last m-off entry does not match the edge count".to_owned());
    }
    if m_adj.iter().any(|&d| d >= nd) {
        return Err("m-adj references a domain index out of bounds".to_owned());
    }

    // Domain CSR: count degrees, prefix-sum, then scatter by walking
    // machines in ascending order so each domain's querier list comes out
    // sorted.
    let mut d_off: Vec<u32> = vec![0; nd as usize + 1];
    for &d in &m_adj {
        d_off[d as usize + 1] += 1;
    }
    for i in 0..nd as usize {
        d_off[i + 1] += d_off[i];
    }
    let mut cursor: Vec<u32> = d_off[..nd as usize].to_vec();
    let mut d_adj: Vec<u32> = vec![0; m_adj.len()];
    for mi in 0..nm as usize {
        let lo = m_off[mi] as usize;
        let hi = m_off[mi + 1] as usize;
        for &d in &m_adj[lo..hi] {
            d_adj[cursor[d as usize] as usize] = mi as u32;
            cursor[d as usize] += 1;
        }
    }

    // Malware degrees are a pure function of labels + adjacency; recompute
    // rather than trust the file.
    let mut machine_malware_degree: Vec<u32> = vec![0; nm as usize];
    for mi in 0..nm as usize {
        let lo = m_off[mi] as usize;
        let hi = m_off[mi + 1] as usize;
        machine_malware_degree[mi] = m_adj[lo..hi]
            .iter()
            .filter(|&&d| domain_labels[d as usize] == Label::Malware)
            .count() as u32;
    }

    let graph = BehaviorGraph {
        day: Day(day),
        machines,
        domains,
        domain_e2ld,
        ip_off,
        ip_pool,
        m_off,
        m_adj,
        d_off,
        d_adj,
        domain_labels,
        machine_labels,
        machine_malware_degree,
    };
    graph
        .validate()
        .map_err(|violation| format!("loaded graph fails validation: {violation}"))?;
    Ok(graph)
}

fn next_line<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    expected: &str,
) -> Result<&'a str, String> {
    lines
        .next()
        .ok_or_else(|| format!("unexpected end of input, expected {expected}"))
}

fn field<T: std::str::FromStr>(part: Option<&str>, what: &str) -> Result<T, String> {
    part.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("malformed {what}"))
}

/// Reads a `keyword v v v …` line carrying exactly `count` u32 values.
fn read_u32_line<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    keyword: &str,
    count: u32,
) -> Result<Vec<u32>, String> {
    let line = next_line(lines, keyword)?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some(keyword) {
        return Err(format!("expected `{keyword}` line"));
    }
    let mut values = Vec::new();
    for _ in 0..count {
        values.push(field(parts.next(), &format!("{keyword} value"))?);
    }
    if parts.next().is_some() {
        return Err(format!("trailing tokens on `{keyword}` line"));
    }
    Ok(values)
}

/// Reads a `keyword MBUU…` label line of exactly `count` labels (`-` when
/// empty).
fn read_label_line<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    keyword: &str,
    count: u32,
) -> Result<Vec<Label>, String> {
    let line = next_line(lines, keyword)?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some(keyword) {
        return Err(format!("expected `{keyword}` line"));
    }
    let text = parts
        .next()
        .ok_or_else(|| format!("missing {keyword} label string"))?;
    if parts.next().is_some() {
        return Err(format!("trailing tokens on `{keyword}` line"));
    }
    if count == 0 {
        if text != "-" {
            return Err(format!("expected `-` for empty {keyword}"));
        }
        return Ok(Vec::new());
    }
    let mut labels = Vec::new();
    for c in text.chars() {
        labels.push(match c {
            'M' => Label::Malware,
            'B' => Label::Benign,
            'U' => Label::Unknown,
            other => return Err(format!("unknown label character {other:?} in {keyword}")),
        });
    }
    if labels.len() != count as usize {
        return Err(format!(
            "{keyword} has {} labels, expected {count}",
            labels.len()
        ));
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::labeling::apply_seed_labels;

    fn sample() -> BehaviorGraph {
        let mut b = GraphBuilder::new(Day(7));
        b.add_query(MachineId(10), DomainId(100));
        b.add_query(MachineId(10), DomainId(200));
        b.add_query(MachineId(20), DomainId(200));
        b.add_query(MachineId(30), DomainId(100));
        b.add_query(MachineId(30), DomainId(300));
        b.set_e2ld(DomainId(100), E2ldId(1));
        b.set_e2ld(DomainId(200), E2ldId(2));
        b.set_e2ld(DomainId(300), E2ldId(2));
        b.add_resolution(DomainId(100), Ipv4::from_octets(10, 0, 0, 1));
        b.add_resolution(DomainId(100), Ipv4::from_octets(10, 0, 0, 2));
        b.add_resolution(DomainId(300), Ipv4::from_octets(45, 9, 1, 3));
        let mut g = b.build();
        apply_seed_labels(&mut g, |d| d == DomainId(300), |e| e == E2ldId(2));
        g
    }

    fn assert_same(a: &BehaviorGraph, b: &BehaviorGraph) {
        assert_eq!(a.day, b.day);
        assert_eq!(a.machines, b.machines);
        assert_eq!(a.domains, b.domains);
        assert_eq!(a.domain_e2ld, b.domain_e2ld);
        assert_eq!(a.ip_off, b.ip_off);
        assert_eq!(a.ip_pool, b.ip_pool);
        assert_eq!(a.m_off, b.m_off);
        assert_eq!(a.m_adj, b.m_adj);
        assert_eq!(a.d_off, b.d_off);
        assert_eq!(a.d_adj, b.d_adj);
        assert_eq!(a.domain_labels, b.domain_labels);
        assert_eq!(a.machine_labels, b.machine_labels);
        assert_eq!(a.machine_malware_degree, b.machine_malware_degree);
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let g = sample();
        let mut text = String::new();
        write_graph(&g, &mut text);
        let loaded = read_graph(&mut text.lines()).expect("round trip");
        assert_same(&g, &loaded);
        // Write is a fixed point.
        let mut again = String::new();
        write_graph(&loaded, &mut again);
        assert_eq!(text, again);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new(Day(0)).build();
        let mut text = String::new();
        write_graph(&g, &mut text);
        let loaded = read_graph(&mut text.lines()).expect("empty round trip");
        assert_same(&g, &loaded);
    }

    #[test]
    fn embedded_graph_leaves_trailing_lines() {
        let g = sample();
        let mut text = String::new();
        write_graph(&g, &mut text);
        text.push_str("next-section 42\n");
        let mut lines = text.lines();
        read_graph(&mut lines).expect("embedded graph");
        assert_eq!(lines.next(), Some("next-section 42"));
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for bad in [
            "",
            "graph v2 0 0 0 0 0",
            "graph v1 0",
            "graph v1 0 0 0 0 0\nmachines extra",
            "graph v1 0 1 0 0 0\nmachines\ndomains 5\ne2ld 0\nip-off 0 0\nip-pool\nm-off 0\nm-adj\nd-labels X\nm-labels -\nend-graph",
            // Edge referencing a domain out of bounds.
            "graph v1 0 1 1 1 0\nmachines 1\ndomains 5\ne2ld 0\nip-off 0 0\nip-pool\nm-off 0 1\nm-adj 9\nd-labels U\nm-labels U\nend-graph",
            // Offsets that do not cover the edge list.
            "graph v1 0 1 1 1 0\nmachines 1\ndomains 5\ne2ld 0\nip-off 0 0\nip-pool\nm-off 0 0\nm-adj 0\nd-labels U\nm-labels U\nend-graph",
            // Unsorted node list survives parsing but fails validation.
            "graph v1 0 2 1 0 0\nmachines 5 3\ndomains 7\ne2ld 0\nip-off 0 0\nip-pool\nm-off 0 0 0\nm-adj\nd-labels U\nm-labels UU\nend-graph",
        ] {
            assert!(read_graph(&mut bad.lines()).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let g = sample();
        let mut text = String::new();
        write_graph(&g, &mut text);
        for cut in [1usize, 2, 4, 6, 8, 10] {
            let truncated: Vec<&str> = text.lines().take(cut).collect();
            assert!(
                read_graph(&mut truncated.clone().into_iter()).is_err(),
                "accepted a {cut}-line prefix"
            );
        }
    }
}
