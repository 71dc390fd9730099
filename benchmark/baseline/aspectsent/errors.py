class PipelineError(Exception):
    """Base class for all domain errors raised by this package.

    The CLI maps any PipelineError to exit code 1 with the error message on
    stderr; usage errors are handled by argparse (exit code 2).
    """
