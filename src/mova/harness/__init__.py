"""CLI, pipeline runner, toy trainer, ablation arms, gradient audit and property suite.

Import each name from the module that defines it.
"""
