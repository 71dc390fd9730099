class PipelineError(Exception):
    """The one domain error of this package.

    The CLI maps any PipelineError to exit code 1 with `error: <message>` on
    stderr; usage errors are handled by argparse (exit code 2). The message is
    the contract, not the class, so a bad input raises PipelineError itself.
    A subclass exists only where code tells it apart: some `except` clause
    names it, or its `__init__` builds the message from its arguments.
    """
