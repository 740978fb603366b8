//! The serv session protocol: frame kinds and error codes.
//!
//! Every exchange is a [`pbio_net::frame::Frame`]:
//!
//! ```text
//! frame := kind:u8  a:u32be  b:u32be  len:u32be  body[len]
//! ```
//!
//! with `a`/`b` meanings assigned per kind below. A session runs:
//!
//! ```text
//! client                                  daemon
//!   | HELLO    a=version b=caps            |   (b: capability bits the
//!   |          body=arch name              |    client offers; old
//!   |  -------------------------------->    |    clients send 0)
//!   |            HELLO_ACK a=version b=conn |   (body: granted caps +
//!   |  <--------------------------------    |    clock sample, may be
//!   |                                       |    empty from old daemons)
//!   | FORMAT   a=token     body=layout meta |   (once per distinct format;
//!   |  -------------------------------->    |    daemon dedups via its
//!   |            FORMAT_ACK a=token b=fmt   |    shared FormatServer)
//!   |  <--------------------------------    |
//!   | CHANNEL  a=token     body=name        |   (create-or-open by name)
//!   |  -------------------------------->    |
//!   |            CHANNEL_ACK a=token b=chan |
//!   |  <--------------------------------    |
//!   | SUBSCRIBE a=chan b=1? body=predicate  |   (b=1: body is a serialized
//!   |  -------------------------------->    |    pbio-chan predicate, to be
//!   |            SUBSCRIBE_ACK a=chan       |    evaluated at the source)
//!   |  <--------------------------------    |
//!   | SUBSCRIBE_FROM a=chan body=offset     |   (durable channels only:
//!   |  -------------------------------->    |    replay history from
//!   |            SUBSCRIBE_ACK a=chan       |    offset, then hand off
//!   |  <--------------------------------    |    seamlessly to live)
//!   | PUBLISH  a=chan b=fmt body=NDR bytes  |   (fire-and-forget; durable
//!   |  -------------------------------->    |    channels ack once the
//!   |            PUBLISH_ACK a=chan b=n     |    bytes are on disk, body
//!   |  <--------------------------------    |    = last durable offset)
//!   |            ANNOUNCE a=fmt body=meta   |   (once per (conn, format),
//!   |  <--------------------------------    |    before its first event)
//!   |            EVENT    a=chan b=fmt      |   (sender's untouched native
//!   |  <--------------------------------    |    bytes; receiver converts)
//!   | CTL      a=token b=op body=args       |   (stats/topology pulls,
//!   |  -------------------------------->    |    trace + tap switches;
//!   |            CTL_ACK a=token b=result   |    body = PBIO record or
//!   |  <--------------------------------    |    empty — see K_CTL)
//!   | BYE                                   |
//!   |  -------------------------------->    |
//!   |            BYE_ACK                    |
//!   |  <--------------------------------    |
//! ```
//!
//! Event bodies are the publisher's NDR bytes, forwarded verbatim: the
//! daemon never converts. Filters run on the daemon against the
//! *publisher's* wire format, so rejected events cost no transmission —
//! the paper's "filter at the source" (§5) for derived event channels.

/// Protocol version carried in `HELLO`/`HELLO_ACK` (any other draws
/// `ERROR(E_VERSION)`). Version 2 folded version 1's four control pairs into [`K_CTL`].
pub const PROTOCOL_VERSION: u32 = 2;

/// Name of the reserved channel the daemon publishes its own metric
/// snapshots on (clients may publish theirs too). Opened at daemon
/// startup; `open_channel(STATS_CHANNEL)` from any client returns it.
pub const STATS_CHANNEL: &str = "$stats";

/// Name of the reserved channel completed distributed-tracing hop
/// records are published on, as self-describing PBIO records — the same
/// dogfooding as [`STATS_CHANNEL`]. Opened at daemon startup.
pub const TRACE_CHANNEL: &str = "$trace";

/// Name of the reserved channel the daemon pushes live topology
/// snapshots on ([`pbio_obs::export::topo_schema`] records: per
/// connection, channel, shard, consumer-lag watermark, plus the recent
/// flight-recorder tail). Opened at daemon startup; push is suppressed
/// while the channel has zero subscribers. One-shot pulls ride
/// [`K_CTL`] op [`CTL_TOPO`].
pub const TOPO_CHANNEL: &str = "$topo";

/// Capability bit (in `HELLO.b` / the HELLO ack body): the peer speaks
/// the trace-trailer extension. Tracing is in effect on a session only
/// when *both* sides advertise it; old peers advertise nothing and see
/// plain frames, which is the whole negotiation.
pub const CAP_TRACE: u32 = 0x1;

/// Capability bit (in `HELLO.b` / the HELLO ack body): the client may
/// resume its session after a reconnect via [`K_RESUME`]. Granted
/// unconditionally by resume-aware daemons; its absence from an ack
/// tells the client the daemon will treat every connection as brand new
/// (so the client re-registers from scratch instead of resuming).
pub const CAP_RESUME: u32 = 0x2;

/// Capability bit (in `HELLO.b` / the HELLO ack body): durable
/// channels. Granted only by daemons configured with
/// `ServConfig::durability`; a client holding the grant may open
/// channels with [`CHAN_DURABLE`], replay history with
/// [`K_SUBSCRIBE_FROM`], and receives [`K_PUBLISH_ACK`] durability
/// acknowledgements plus offset trailers ([`OFFSET_FLAG`]) on events.
pub const CAP_DURABLE: u32 = 0x4;

/// Capability bit (in `HELLO.b` / the HELLO ack body): the connecting
/// peer is another daemon's mesh link, not an application client.
/// Granted only by daemons configured with a `ServConfig::peers` mesh.
/// Publishes arriving on a peer connection are home-side deliveries:
/// they fan out locally and are **never** forwarded again (the
/// structural loop guard of the relay mesh). Granting the bit also
/// triggers the format-registry gossip dump: the daemon pushes every
/// registered layout to the new link as `FORMAT` frames so
/// remote-origin events decode everywhere.
pub const CAP_PEER: u32 = 0x8;

/// High bit of the format-id argument (`b`) on [`K_PUBLISH`] and
/// [`K_EVENT`]: the body carries a trace trailer
/// ([`pbio_obs::TRACE_TRAILER_LEN`] bytes) after the record's NDR
/// bytes. Format ids never reach this bit.
pub const TRACE_FLAG: u32 = 0x8000_0000;

/// Bit 30 of the format-id argument (`b`) on [`K_EVENT`]: the body ends
/// with the event's durable channel offset (`u64be`, *after* the trace
/// trailer when both are present — the daemon appends it last, so it is
/// stripped first). Daemon-global format ids count up from zero and
/// never reach this bit.
pub const OFFSET_FLAG: u32 = 0x4000_0000;

/// Channel-flags bit (in `K_CHANNEL.b`): open the channel *durable* —
/// every event published to it is appended to the daemon's pbio-store
/// segment log and replayable by offset. Requires a daemon configured
/// with `ServConfig::durability` (else `ERROR(E_CHANNEL)`); opening an
/// already-durable channel without the bit is fine (durability is a
/// channel property, not a per-subscriber one).
pub const CHAN_DURABLE: u32 = 0x1;

/// Trailing bytes a [`OFFSET_FLAG`] offset trailer adds to an event
/// body.
pub const OFFSET_TRAILER_LEN: usize = 8;

/// Client → daemon: open a session. `a` = version, `b` = capability
/// bits ([`CAP_TRACE`]; old clients send 0), body = architecture
/// profile name (e.g. `"sparc-v8"`).
pub const K_HELLO: u8 = 0x01;
/// Daemon → client: session accepted. `a` = version, `b` = connection
/// id. The body, absent from pre-tracing daemons and ignored by
/// pre-tracing clients, is `granted_caps:u32be  t_ns:u64be
/// sample_mod:u32be`: the intersection of offered and supported
/// capabilities, the daemon's clock sampled while serving the HELLO
/// (one half of the [`pbio_net::clock::ClockSync`] offset exchange),
/// and the daemon's head-sampling modulus for publishers to adopt.
pub const K_HELLO_ACK: u8 = 0x02;
/// Client → daemon: register a format. `a` = client token, body =
/// serialized layout meta-information.
pub const K_FORMAT: u8 = 0x10;
/// Daemon → client: format registered. `a` = echoed token, `b` = the
/// daemon-global format id.
pub const K_FORMAT_ACK: u8 = 0x11;
/// Client → daemon: create-or-open a named channel. `a` = client token,
/// body = UTF-8 channel name.
pub const K_CHANNEL: u8 = 0x12;
/// Daemon → client: channel ready. `a` = echoed token, `b` = channel id.
pub const K_CHANNEL_ACK: u8 = 0x13;
/// Client → daemon: subscribe to a channel. `a` = channel id, `b` = 1 if
/// the body carries a serialized predicate ([`pbio_chan::wire`]), else 0.
pub const K_SUBSCRIBE: u8 = 0x14;
/// Daemon → client: subscription active. `a` = channel id.
pub const K_SUBSCRIBE_ACK: u8 = 0x15;
/// Client → daemon: subscribe to a channel *from a durable offset*.
/// `a` = channel id, body = `offset:u64be`. The daemon streams history
/// from that offset (clamped to what retention kept), then hands off
/// seamlessly to live events — the subscriber sees one gapless,
/// offset-stamped sequence. Requires [`CAP_DURABLE`] and a durable
/// channel; acked with [`K_SUBSCRIBE_ACK`] before the first replayed
/// event.
pub const K_SUBSCRIBE_FROM: u8 = 0x16;
/// Client → daemon: publish an event. `a` = channel id, `b` = format id,
/// body = the record's native (NDR) bytes. No acknowledgement on
/// transient channels; on durable channels the daemon answers (possibly
/// batched) with [`K_PUBLISH_ACK`] once the bytes are on disk.
pub const K_PUBLISH: u8 = 0x20;
/// Daemon → subscriber: an event. `a` = channel id, `b` = format id,
/// body = the *publisher's* NDR bytes, forwarded without conversion.
pub const K_EVENT: u8 = 0x21;
/// Daemon → publisher: durability acknowledgement for a durable
/// channel. `a` = channel id, `b` = how many of the publisher's events
/// this ack newly covers, body = `last_offset:u64be` — the highest
/// channel offset now on disk for this publisher. Sent only to
/// [`CAP_DURABLE`] connections; an acked event survives a daemon crash
/// and replays via [`K_SUBSCRIBE_FROM`].
pub const K_PUBLISH_ACK: u8 = 0x23;
/// Daemon → subscriber: format meta for an id the subscriber is about to
/// see. `a` = format id, body = serialized layout. Sent once per
/// (connection, format), always before that format's first [`K_EVENT`].
pub const K_ANNOUNCE: u8 = 0x22;
/// Client → daemon: a control request — the one frame kind behind
/// every stats pull, topology pull, trace-sampling switch and tap
/// switch. `a` = client token, `b` = op code, body = the op's arguments
/// as `u32be` words:
///
/// | op                | args           | [`K_CTL_ACK`] `b`   | ack body             |
/// |-------------------|----------------|---------------------|----------------------|
/// | [`CTL_STATS`]     | —              | snapshot format id  | `$stats` record      |
/// | [`CTL_TOPO`]      | —              | topology format id  | `$topo` record       |
/// | [`CTL_TRACE_MOD`] | `modulus`      | previous modulus    | empty                |
/// | [`CTL_TAP`]       | `mode [param]` | previous tap mode   | empty                |
///
/// Record bodies are native (NDR) bytes in the same encoding the
/// reserved channel pushes, preceded — once per connection — by a
/// [`K_ANNOUNCE`] of their format, so a reply decodes like any event.
/// An unknown op or a malformed argument list draws `ERROR(E_PROTOCOL)`
/// and the session stays open.
pub const K_CTL: u8 = 0x40;
/// Daemon → client: a control reply. `a` = echoed token, `b` = the op's
/// result (see [`K_CTL`]), body = a PBIO record or empty.
pub const K_CTL_ACK: u8 = 0x41;

/// [`K_CTL`] op: pull a snapshot of the daemon's metric registry.
pub const CTL_STATS: u32 = 1;
/// [`K_CTL`] op: pull a live topology snapshot (see [`TOPO_CHANNEL`]).
pub const CTL_TOPO: u32 = 2;
/// [`K_CTL`] op: set the head-sampling modulus new sessions adopt at
/// handshake (sample one publish in `modulus`; `0` disables tracing).
pub const CTL_TRACE_MOD: u32 = 3;
/// [`K_CTL`] op: reconfigure the wire tap. `mode` is a `TAP_*` code;
/// `param` (default 0) is the sampling modulus or the channel id to scope
/// to. Control frames are always captured while any mode is on, so a
/// capture stays self-describing. Requires `ServConfig::tap`.
pub const CTL_TAP: u32 = 4;

/// [`CTL_TAP`] mode: capture nothing (the hot path pays one relaxed
/// load per frame and no more).
pub const TAP_OFF: u32 = 0;
/// [`CTL_TAP`] mode: capture every frame, both directions.
pub const TAP_FULL: u32 = 1;
/// [`CTL_TAP`] mode: capture every control frame but only one event
/// frame ([`K_PUBLISH`]/[`K_EVENT`]) in `param`.
pub const TAP_SAMPLED: u32 = 2;
/// [`CTL_TAP`] mode: capture every control frame but only the event
/// frames of channel `param`.
pub const TAP_CHANNEL: u32 = 3;
/// Daemon → client: liveness probe, sent when a connection has been
/// silent for longer than the daemon's ping budget. `a` = a probe token
/// the pong must echo. Clients answer transparently from their poll
/// loop; a peer that answers nothing for the daemon's dead budget is
/// evicted.
pub const K_PING: u8 = 0x50;
/// Client → daemon: liveness answer. `a` = the echoed probe token.
/// (Any inbound frame refreshes liveness; the PONG matters for clients
/// with nothing else to say.)
pub const K_PONG: u8 = 0x51;
/// Client → daemon, instead of a fresh handshake's first post-HELLO
/// frame: resume a previous session. `a` = session epoch (monotonic per
/// client identity, bumped on every reconnect), `b` = low 32 bits of the
/// client identity, body = `client_id:u64be`. The daemon discards state
/// held for lower epochs of the same identity (a stale predecessor
/// connection is evicted) and answers [`K_RESUME_ACK`]; a resume with an
/// epoch at or below the registered one is answered with
/// `ERROR(E_STALE)` and the connection closed.
pub const K_RESUME: u8 = 0x52;
/// Daemon → client: resume accepted. `a` = the echoed epoch. The client
/// then replays FORMAT/CHANNEL/SUBSCRIBE registrations (the daemon may
/// have restarted and lost them; replay is idempotent either way).
pub const K_RESUME_ACK: u8 = 0x53;
/// Client → daemon: graceful disconnect.
pub const K_BYE: u8 = 0x30;
/// Daemon → client: disconnect acknowledged; no further frames follow.
pub const K_BYE_ACK: u8 = 0x31;
/// Daemon → client: request failed. `a` = error code ([`E_PROTOCOL`]…),
/// body = UTF-8 description.
pub const K_ERROR: u8 = 0x7F;

/// Malformed or unexpected frame.
pub const E_PROTOCOL: u32 = 1;
/// `HELLO` carried an unsupported protocol version.
pub const E_VERSION: u32 = 2;
/// `HELLO` named an unknown architecture profile.
pub const E_ARCH: u32 = 3;
/// Bad format metadata, or a publish for an unregistered format id.
pub const E_FORMAT: u32 = 4;
/// Unknown channel id.
pub const E_CHANNEL: u32 = 5;
/// Undecodable subscription predicate.
pub const E_PREDICATE: u32 = 6;
/// A [`K_RESUME`] carried an epoch no newer than the one already
/// registered for that client identity: the resuming connection is the
/// stale duplicate, not the survivor.
pub const E_STALE: u32 = 7;
/// The daemon is at its concurrency limit for the requested work (e.g.
/// [`K_SUBSCRIBE_FROM`] when every replay slot is busy). Transient: the
/// request may be retried once load subsides; the session stays open.
pub const E_BUSY: u32 = 8;

/// Human-readable name for a frame kind — what `pbio-dump` prints per
/// captured frame. Unknown kinds render as `"?"` (a capture may come
/// from a newer daemon).
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        K_HELLO => "HELLO",
        K_HELLO_ACK => "HELLO_ACK",
        K_FORMAT => "FORMAT",
        K_FORMAT_ACK => "FORMAT_ACK",
        K_CHANNEL => "CHANNEL",
        K_CHANNEL_ACK => "CHANNEL_ACK",
        K_SUBSCRIBE => "SUBSCRIBE",
        K_SUBSCRIBE_ACK => "SUBSCRIBE_ACK",
        K_SUBSCRIBE_FROM => "SUBSCRIBE_FROM",
        K_PUBLISH => "PUBLISH",
        K_EVENT => "EVENT",
        K_ANNOUNCE => "ANNOUNCE",
        K_PUBLISH_ACK => "PUBLISH_ACK",
        K_CTL => "CTL",
        K_CTL_ACK => "CTL_ACK",
        K_PING => "PING",
        K_PONG => "PONG",
        K_RESUME => "RESUME",
        K_RESUME_ACK => "RESUME_ACK",
        K_BYE => "BYE",
        K_BYE_ACK => "BYE_ACK",
        K_ERROR => "ERROR",
        _ => "?",
    }
}
