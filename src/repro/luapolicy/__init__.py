"""Mantle-Lua: a sandboxed Lua-subset interpreter for balancer policies.

The paper injects balancing logic as Lua source (``ceph tell mds.0
injectargs mds_bal_metaload IWR``).  This package provides the equivalent
execution substrate in pure Python: a lexer, parser and tree-walking
interpreter for the Lua subset the paper's Listings 1-4 use, plus an
instruction budget so a bad policy (``while 1 do end``) cannot take the
metadata server down.

Public API:

>>> from repro.luapolicy import run_policy
>>> result = run_policy("x = 1 + 2")
>>> result.python_value("x")
3.0
"""

from .errors import (
    LuaBudgetExceeded,
    LuaError,
    LuaRuntimeError,
    LuaSyntaxError,
)
from .interpreter import DEFAULT_BUDGET, Environment, Interpreter
from .lexer import Token, tokenize
from .parser import parse_chunk, parse_expression
from .sandbox import (
    CompiledPolicy,
    PolicyResult,
    compile_load_expression,
    compile_policy,
    evaluate_expression,
    run_policy,
)
from .stdlib import new_environment
from .values import LuaFunction, LuaTable, MultiValue, from_python, to_python

__all__ = [
    "CompiledPolicy",
    "DEFAULT_BUDGET",
    "Environment",
    "Interpreter",
    "LuaBudgetExceeded",
    "LuaError",
    "LuaFunction",
    "LuaRuntimeError",
    "LuaSyntaxError",
    "LuaTable",
    "MultiValue",
    "PolicyResult",
    "Token",
    "compile_load_expression",
    "compile_policy",
    "evaluate_expression",
    "from_python",
    "new_environment",
    "parse_chunk",
    "parse_expression",
    "run_policy",
    "to_python",
    "tokenize",
]
