"""Flit-level event-driven network simulator (the paper's Venus
substitute): IO-buffered switches, credit flow control, round-robin
arbitration and adapter interleaving (Sec. VI-B)."""

from .engine import VenusResult, VenusSimulator
from .messages import Message, Segment

__all__ = ["VenusSimulator", "VenusResult", "Message", "Segment"]
