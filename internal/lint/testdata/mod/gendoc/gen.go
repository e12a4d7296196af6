// Code generated by stubgen; DO NOT EDIT.

package gendoc

func GeneratedUndocumented() {}

type AlsoGenerated struct{}
