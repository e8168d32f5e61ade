"""The fusion adapter: config, text tokens, parameters and the forward network.

Import each name from the module that defines it.
"""
