"""Exception hierarchy shared across the package.

Every error that makes a protocol participant terminate its session
derives from ProtocolError, so the simulator has a single catch point
and can turn aborts into data instead of crashes.
"""


class ProtocolError(Exception):
    """Base class for every condition that aborts a protocol session."""


class AuthFailure(ProtocolError):
    """Authenticated decryption failed: wrong key or tampered ciphertext."""


class InvalidPoint(ProtocolError):
    """A received group element is not on the curve."""


class StaleTimestamp(ProtocolError):
    """A message timestamp fell outside the freshness window."""


class MalformedMessage(ProtocolError, ValueError):
    """Bytes could not be parsed back into a message or record. Also a
    ValueError, so malformed input of any kind is caught as one type."""


class DigestMismatch(ProtocolError):
    """A recomputed verifier digest differed from the received one."""


class BadSignature(ProtocolError):
    """A digital signature failed verification."""


class UnknownPatient(ProtocolError):
    """The cloud has no record for the presented patient/pseudonym pair."""


class UnknownDoctor(ProtocolError):
    """The requesting doctor is not appointed to any registered patient."""


class RecordIncomplete(ProtocolError):
    """A phase was requested before its prerequisite phase completed."""


class SerialMismatch(ProtocolError):
    """The serial number presented by the patient differs from the stored one."""


class AttackFailed(Exception):
    """An adversary operation could not complete.

    Deliberately *not* a ProtocolError: a failed attack is a harness
    outcome, never a session abort.
    """
