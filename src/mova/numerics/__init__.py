"""Dense kernels, MOVT tensor files, finite-difference checks and the autodiff tape.

Import each name from the module that defines it.
"""
