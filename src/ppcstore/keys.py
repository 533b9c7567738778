"""Sortable file keys: extension first, then basename, then content id.

Sorting the encoded keys byte-lexicographically places files of the same
extension (a language proxy) in one contiguous run, and files sharing a
basename adjacent within it, so that neighbouring values are similar and
compress well together.
"""

from dataclasses import dataclass

from .errors import InvalidNameError, MalformedKeyError

# Field separator. NUL sorts below every content byte, so the encoded
# form orders exactly like the (extension, basename, content_id) tuple.
SEP = b"\x00"


@dataclass(frozen=True, slots=True)
class PpcKey:
    """Composite key; all fields are raw bytes free of the separator."""

    extension: bytes
    basename: bytes
    content_id: bytes

    def __post_init__(self):
        for field in (self.extension, self.basename, self.content_id):
            if SEP in field:
                raise MalformedKeyError("key field contains NUL separator")
        if not self.basename:
            raise MalformedKeyError("basename must be nonempty")
        if not self.content_id:
            raise MalformedKeyError("content_id must be nonempty")

    def encoded(self) -> bytes:
        return self.extension + SEP + self.basename + SEP + self.content_id


def derive_key(canonical_name: str, content_id: str) -> PpcKey:
    """Split a canonical filename into (extension, basename) key parts.

    The extension is everything after the last dot, lowercased; it is empty
    when the name has no dot, ends with a dot, or consists only of a leading
    dot plus suffix (dotfiles like '.bashrc' are treated as extensionless so
    the basename stays nonempty).
    """
    if not canonical_name:
        raise InvalidNameError("canonical name must be nonempty")
    if not content_id:
        raise InvalidNameError("content id must be nonempty")
    if "\x00" in canonical_name or "\x00" in content_id:
        raise InvalidNameError("embedded NUL byte in name or content id")

    dot = canonical_name.rfind(".")
    if dot <= 0 or dot == len(canonical_name) - 1:
        extension = ""
        basename = canonical_name
    else:
        extension = canonical_name[dot + 1 :].lower()
        basename = canonical_name[:dot]
    return PpcKey(extension.encode(), basename.encode(), content_id.encode())


def decode(data: bytes) -> PpcKey:
    """Inverse of PpcKey.encoded; rejects inputs without exactly two separators."""
    parts = data.split(SEP)
    if len(parts) != 3:
        raise MalformedKeyError(
            f"expected exactly 2 separators, found {len(parts) - 1}"
        )
    return PpcKey(parts[0], parts[1], parts[2])
