"""Exception taxonomy shared by all medseq modules.

CLI exit-code mapping: ValidationError/ConfigError -> 2, any other
MedseqError -> 3 (argparse usage errors exit 1 on their own).  Every text
artifact is read through config.read_text/read_lines, so a file that is not
UTF-8 raises ValidationError("<path>: not UTF-8 text ..."), and a malformed
line raises ValidationError (CorpusFormatError for the corpus, ConfigError
for a --config file) with the message "<path>: line <n>: <what>".  The CLI
prints it as one "error: ..." line on stderr.
"""


class MedseqError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MedseqError):
    """Malformed data: bad codes, bad corpus rows, invariant violations."""


class ConfigError(MedseqError):
    """Invalid or out-of-range configuration values."""


class CorpusFormatError(ValidationError):
    """Corpus file violation; the message names the path and the line."""


class ShapeError(MedseqError):
    """Incompatible tensor shapes passed to a numeric op."""


class DivergenceError(MedseqError):
    """Training produced a non-finite loss."""
