#include "gmp/message.hpp"

#include <sstream>

namespace pfi::gmp {

std::string to_string(MsgType t) {
  switch (t) {
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kProclaim: return "proclaim";
    case MsgType::kJoin: return "join";
    case MsgType::kMembershipChange: return "membership-change";
    case MsgType::kMcAck: return "mc-ack";
    case MsgType::kMcNak: return "mc-nak";
    case MsgType::kCommit: return "commit";
    case MsgType::kDeathReport: return "death-report";
  }
  return "?";
}

xk::Message GmpMessage::encode() const {
  xk::Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(sender);
  w.u32(originator);
  w.u32(subject);
  w.u64(view_id);
  w.u16(static_cast<std::uint16_t>(members.size()));
  for (net::NodeId m : members) w.u32(m);
  xk::Message msg;
  w.push_onto(msg);
  return msg;
}

bool GmpMessage::peek(const xk::Message& msg, std::size_t at,
                      GmpMessage& out) {
  if (msg.size() < at) return false;
  // Publish only a whole message: a bad member count leaves `out` alone.
  xk::Reader r{msg.bytes().subspan(at)};
  GmpMessage m;
  m.type = static_cast<MsgType>(r.u8());
  m.sender = r.u32();
  m.originator = r.u32();
  m.subject = r.u32();
  m.view_id = r.u64();
  const std::uint16_t n = r.u16();
  if (r.truncated() || r.remaining() / 4 < n) return false;
  m.members.resize(n);
  for (net::NodeId& member : m.members) member = r.u32();
  out = std::move(m);
  return true;
}

bool GmpMessage::decode(const xk::Message& msg, GmpMessage& out) {
  return peek(msg, 0, out);
}

std::string GmpMessage::summary() const {
  std::ostringstream os;
  os << to_string(type) << " sender=" << sender << " orig=" << originator;
  if (type == MsgType::kDeathReport) os << " subject=" << subject;
  if (view_id != 0) os << " view=" << view_id;
  if (!members.empty()) {
    os << " members={";
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i > 0) os << ',';
      os << members[i];
    }
    os << '}';
  }
  return os.str();
}

void RelHeader::push_onto(xk::Message& msg) const {
  xk::Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(seq);
  w.push_onto(msg);
}

bool RelHeader::pop_from(xk::Message& msg, RelHeader& out) {
  if (!peek(msg, 0, out)) return false;
  msg.pop_header(kSize);
  return true;
}

bool RelHeader::peek(const xk::Message& msg, std::size_t at, RelHeader& out) {
  if (msg.size() < at + kSize) return false;
  xk::Reader r{msg.bytes().subspan(at)};
  out.kind = static_cast<RelKind>(r.u8());
  out.seq = r.u32();
  return true;
}

}  // namespace pfi::gmp
